#include "ml/dtree/c45.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_util.hpp"

namespace dfp {

namespace {

// z-value of the standard normal upper tail for probability cf, via the
// rational approximation of Abramowitz & Stegun 26.2.23 (|err| < 4.5e-4).
double UpperTailZ(double cf) {
    const double t = std::sqrt(-2.0 * std::log(cf));
    return t - (2.515517 + 0.802853 * t + 0.010328 * t * t) /
                   (1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t * t * t);
}

// Majority label and error count of a class histogram.
std::pair<ClassLabel, std::size_t> MajorityOf(const std::vector<std::size_t>& hist) {
    std::size_t best = 0;
    std::size_t total = 0;
    for (std::size_t c = 0; c < hist.size(); ++c) {
        total += hist[c];
        if (hist[c] > hist[best]) best = c;
    }
    return {static_cast<ClassLabel>(best), total - hist[best]};
}

}  // namespace

double PessimisticErrorRate(double e, double n, double cf) {
    if (n <= 0.0) return 0.0;
    const double z = UpperTailZ(cf);
    const double f = e / n;
    const double z2 = z * z;
    const double numerator =
        f + z2 / (2.0 * n) +
        z * std::sqrt(std::max(0.0, f / n - f * f / n + z2 / (4.0 * n * n)));
    return std::min(1.0, numerator / (1.0 + z2 / n));
}

Status C45Classifier::Train(const FeatureMatrix& x, const std::vector<ClassLabel>& y,
                            std::size_t num_classes) {
    if (x.rows() == 0) return Status::InvalidArgument("empty training set");
    DFP_RETURN_NOT_OK(ValidateTrainingInput("C4.5", x, y, num_classes));
    nodes_.clear();
    num_classes_ = num_classes;
    const PackedRows packed(x);
    std::vector<std::size_t> rows(x.rows());
    for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
    std::vector<std::size_t> ones(x.cols() * num_classes, 0);
    root_ = BuildNode(packed, y, rows, 0, &ones);
    if (config_.prune) PruneNode(root_);
    return Status::Ok();
}

std::int32_t C45Classifier::BuildNode(const PackedRows& x,
                                      const std::vector<ClassLabel>& y,
                                      std::vector<std::size_t>& rows,
                                      std::size_t depth,
                                      std::vector<std::size_t>* ones) {
    std::vector<std::size_t> hist(num_classes_, 0);
    for (std::size_t r : rows) hist[y[r]]++;
    const auto [majority, errors] = MajorityOf(hist);

    const std::int32_t idx = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(Node{});
    nodes_[idx].label = majority;
    nodes_[idx].count = rows.size();
    nodes_[idx].errors = errors;

    const double h_parent = EntropyCounts(hist);
    if (errors == 0 || depth >= config_.max_depth ||
        rows.size() < 2 * config_.min_leaf || h_parent <= 0.0) {
        return idx;  // pure / too small / too deep: leaf
    }

    // Class histogram of the rows whose feature is 1, for every feature at
    // once: (*ones)[f * K + c] counts the node's class-c rows with bit f set.
    // One pass over the set bits of the node's rows.
    const std::size_t k = num_classes_;
    std::fill(ones->begin(), ones->end(), 0);
    for (std::size_t r : rows) {
        const ClassLabel c = y[r];
        x.ForEach(r, [ones, k, c](std::size_t f) { (*ones)[f * k + c]++; });
    }

    // Best gain-ratio split over all features. A 0/1 feature has the single
    // threshold 0.5: rows with bit f clear go left.
    double best_ratio = 0.0;
    std::size_t best_feature = 0;
    bool found = false;
    const double n = static_cast<double>(rows.size());
    std::vector<std::size_t> left_hist(k);
    std::vector<std::size_t> right_hist(k);
    for (std::size_t f = 0; f < x.cols(); ++f) {
        std::size_t left_n = 0;
        for (std::size_t c = 0; c < k; ++c) {
            right_hist[c] = (*ones)[f * k + c];
            left_hist[c] = hist[c] - right_hist[c];
            left_n += left_hist[c];
        }
        if (left_n == 0 || left_n == rows.size()) continue;  // constant
        if (left_n < config_.min_leaf || rows.size() - left_n < config_.min_leaf) {
            continue;
        }
        const double nl = static_cast<double>(left_n);
        const double nr = n - nl;
        const double gain = h_parent - (nl / n) * EntropyCounts(left_hist) -
                            (nr / n) * EntropyCounts(right_hist);
        if (gain <= kMinGain) continue;
        const double split_info = -XLog2X(nl / n) - XLog2X(nr / n);
        if (split_info <= 0.0) continue;
        const double ratio = gain / split_info;
        if (ratio > best_ratio) {
            best_ratio = ratio;
            best_feature = f;
            found = true;
        }
    }
    if (!found) return idx;

    std::vector<std::size_t> left_rows;
    std::vector<std::size_t> right_rows;
    for (std::size_t r : rows) {
        if (x.Test(r, best_feature)) {
            right_rows.push_back(r);
        } else {
            left_rows.push_back(r);
        }
    }
    rows.clear();
    rows.shrink_to_fit();  // release before recursing

    const std::int32_t left = BuildNode(x, y, left_rows, depth + 1, ones);
    const std::int32_t right = BuildNode(x, y, right_rows, depth + 1, ones);
    nodes_[idx].leaf = false;
    nodes_[idx].feature = best_feature;
    nodes_[idx].threshold = kSplitThreshold;
    nodes_[idx].left = left;
    nodes_[idx].right = right;
    return idx;
}

double C45Classifier::PruneNode(std::int32_t idx) {
    Node& node = nodes_[idx];
    const double n = static_cast<double>(node.count);
    const double leaf_estimate =
        PessimisticErrorRate(static_cast<double>(node.errors), n,
                             config_.confidence) *
        n;
    if (node.leaf) return leaf_estimate;
    const double subtree_estimate =
        PruneNode(node.left) + PruneNode(node.right);
    if (leaf_estimate <= subtree_estimate + 0.1) {
        node.leaf = true;  // children stay allocated but unreachable
        return leaf_estimate;
    }
    return subtree_estimate;
}

ClassLabel C45Classifier::Predict(std::span<const std::uint64_t> row) const {
    std::int32_t idx = root_;
    while (idx >= 0 && !nodes_[idx].leaf) {
        const Node& node = nodes_[idx];
        const double value = RowBit(row, node.feature) ? 1.0 : 0.0;
        idx = (value <= node.threshold) ? node.left : node.right;
    }
    return idx >= 0 ? nodes_[idx].label : 0;
}

std::size_t C45Classifier::num_leaves() const {
    if (root_ < 0) return 0;
    std::size_t leaves = 0;
    std::vector<std::int32_t> stack = {root_};
    while (!stack.empty()) {
        const std::int32_t idx = stack.back();
        stack.pop_back();
        if (nodes_[idx].leaf) {
            ++leaves;
        } else {
            stack.push_back(nodes_[idx].left);
            stack.push_back(nodes_[idx].right);
        }
    }
    return leaves;
}

std::size_t C45Classifier::DepthOf(std::int32_t idx) const {
    if (idx < 0 || nodes_[idx].leaf) return 0;
    return 1 + std::max(DepthOf(nodes_[idx].left), DepthOf(nodes_[idx].right));
}

std::size_t C45Classifier::depth() const { return root_ < 0 ? 0 : DepthOf(root_); }

}  // namespace dfp

// ---- Serialization ---------------------------------------------------------

#include "common/serialize.hpp"

namespace dfp {

Status C45Classifier::SaveModel(std::ostream& out) const {
    out << "c45-model " << num_classes_ << ' ' << root_ << ' ' << nodes_.size()
        << '\n';
    for (const Node& node : nodes_) {
        out << (node.leaf ? 1 : 0) << ' ' << node.label << ' ' << node.count << ' '
            << node.errors << ' ' << node.feature << ' ';
        WriteDouble(out, node.threshold);
        out << ' ' << node.left << ' ' << node.right << '\n';
    }
    if (!out) return Status::Internal("C4.5 model write failed");
    return Status::Ok();
}

Status C45Classifier::LoadModel(std::istream& in, std::size_t cols) {
    TokenReader reader(in);
    DFP_RETURN_NOT_OK(reader.Expect("c45-model"));
    DFP_RETURN_NOT_OK(reader.ReadCount(&num_classes_));
    DFP_RETURN_NOT_OK(reader.Read(&root_));
    std::size_t count = 0;
    DFP_RETURN_NOT_OK(reader.ReadCount(&count));
    nodes_.assign(count, Node{});
    for (Node& node : nodes_) {
        std::size_t leaf = 0;
        DFP_RETURN_NOT_OK(reader.Read(&leaf));
        node.leaf = leaf != 0;
        DFP_RETURN_NOT_OK(reader.Read(&node.label));
        DFP_RETURN_NOT_OK(reader.Read(&node.count));
        DFP_RETURN_NOT_OK(reader.Read(&node.errors));
        DFP_RETURN_NOT_OK(reader.Read(&node.feature));
        DFP_RETURN_NOT_OK(reader.Read(&node.threshold));
        DFP_RETURN_NOT_OK(reader.Read(&node.left));
        DFP_RETURN_NOT_OK(reader.Read(&node.right));
        if (node.label >= num_classes_) {
            return Status::InvalidArgument("C4.5 node label out of range");
        }
        if (node.leaf) continue;
        // BuildNode allocates children after their parent, so every path
        // from the root climbs in index and Predict ends at a leaf.
        const auto parent = static_cast<std::int32_t>(&node - nodes_.data());
        if (node.left <= parent || node.right <= parent ||
            node.left >= static_cast<std::int32_t>(count) ||
            node.right >= static_cast<std::int32_t>(count)) {
            return Status::ParseError("C4.5 model child index out of range");
        }
        if (node.feature >= cols) {
            return Status::InvalidArgument("C4.5 split feature outside the space");
        }
    }
    if (root_ >= static_cast<std::int32_t>(count)) {
        return Status::ParseError("C4.5 model root out of range");
    }
    return Status::Ok();
}

}  // namespace dfp
