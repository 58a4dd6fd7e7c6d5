#include "data/discretizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.hpp"
#include "common/string_util.hpp"

namespace dfp {

std::uint32_t DiscretizationModel::BinOf(std::size_t attr, double value) const {
    const auto& cuts = cut_points[attr];
    const auto it = std::upper_bound(cuts.begin(), cuts.end(), value);
    return static_cast<std::uint32_t>(it - cuts.begin());
}

DiscretizationModel MdlDiscretizer::Fit(const Dataset& data) const {
    DiscretizationModel model;
    model.cut_points.resize(data.num_attributes());
    for (std::size_t a = 0; a < data.num_attributes(); ++a) {
        if (data.attribute(a).type != AttributeType::kNumeric) continue;
        std::vector<double> column(data.num_rows());
        for (std::size_t r = 0; r < data.num_rows(); ++r) column[r] = data.Value(r, a);
        model.cut_points[a] = FindCutPoints(column, data.labels(), data.num_classes());
    }
    return model;
}

Dataset MdlDiscretizer::Apply(const DiscretizationModel& model, const Dataset& data) {
    std::vector<Attribute> schema = data.attributes();
    for (std::size_t a = 0; a < schema.size(); ++a) {
        if (schema[a].type != AttributeType::kNumeric) continue;
        const auto& cuts = model.cut_points[a];
        schema[a].type = AttributeType::kCategorical;
        schema[a].values.clear();
        for (std::size_t b = 0; b <= cuts.size(); ++b) {
            const std::string lo = (b == 0) ? "-inf" : StrFormat("%.6g", cuts[b - 1]);
            const std::string hi =
                (b == cuts.size()) ? "+inf" : StrFormat("%.6g", cuts[b]);
            schema[a].values.push_back("[" + lo + "," + hi + ")");
        }
    }
    Dataset out(std::move(schema), data.class_names());
    std::vector<double> row(data.num_attributes());
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
        for (std::size_t a = 0; a < data.num_attributes(); ++a) {
            if (data.attribute(a).type == AttributeType::kNumeric) {
                row[a] = model.BinOf(a, data.Value(r, a));
            } else {
                row[a] = data.Value(r, a);
            }
        }
        (void)out.AddRow(row, data.label(r));
    }
    return out;
}

Dataset MdlDiscretizer::FitApply(const Dataset& data) const {
    return Apply(Fit(data), data);
}

namespace {

// One (value, label) observation, sorted by value for the MDL recursion.
struct Obs {
    double value;
    ClassLabel label;
};

// Entropy (bits) of the label distribution of obs[lo, hi).
double RangeEntropy(const std::vector<Obs>& obs, std::size_t lo, std::size_t hi,
                    std::size_t num_classes, std::size_t* distinct_out) {
    std::vector<std::size_t> counts(num_classes, 0);
    for (std::size_t i = lo; i < hi; ++i) counts[obs[i].label]++;
    std::size_t distinct = 0;
    for (auto c : counts) distinct += (c > 0);
    if (distinct_out != nullptr) *distinct_out = distinct;
    return EntropyCounts(counts);
}

// Recursive Fayyad–Irani partitioning of obs[lo, hi); appends accepted cut
// values to *cuts.
void MdlPartition(const std::vector<Obs>& obs, std::size_t lo, std::size_t hi,
                  std::size_t num_classes, std::vector<double>* cuts) {
    const auto n = static_cast<double>(hi - lo);
    if (hi - lo < 2) return;

    std::size_t k_all = 0;
    const double h_all = RangeEntropy(obs, lo, hi, num_classes, &k_all);
    if (k_all <= 1) return;  // already pure

    // Scan boundary candidates: positions where the value changes. Track class
    // counts incrementally on the left side.
    std::vector<std::size_t> left(num_classes, 0);
    std::vector<std::size_t> total(num_classes, 0);
    for (std::size_t i = lo; i < hi; ++i) total[obs[i].label]++;

    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best_split = 0;  // split between best_split-1 and best_split
    double best_h_left = 0.0;
    double best_h_right = 0.0;

    for (std::size_t i = lo; i + 1 < hi; ++i) {
        left[obs[i].label]++;
        if (obs[i].value == obs[i + 1].value) continue;  // not a boundary
        const auto n_left = static_cast<double>(i + 1 - lo);
        const auto n_right = n - n_left;
        std::vector<std::size_t> right(num_classes);
        for (std::size_t c = 0; c < num_classes; ++c) right[c] = total[c] - left[c];
        const double h_left = EntropyCounts(left);
        const double h_right = EntropyCounts(right);
        const double cost = (n_left / n) * h_left + (n_right / n) * h_right;
        if (cost < best_cost) {
            best_cost = cost;
            best_split = i + 1;
            best_h_left = h_left;
            best_h_right = h_right;
        }
    }
    if (best_split == 0) return;  // constant column: no boundary found

    // MDL acceptance test (Fayyad & Irani 1993):
    //   gain > log2(n-1)/n + delta/n
    //   delta = log2(3^k - 2) - (k*H - k1*H1 - k2*H2)
    const double gain = h_all - best_cost;
    std::size_t k1 = 0;
    std::size_t k2 = 0;
    (void)RangeEntropy(obs, lo, best_split, num_classes, &k1);
    (void)RangeEntropy(obs, best_split, hi, num_classes, &k2);
    const double delta =
        std::log2(std::pow(3.0, static_cast<double>(k_all)) - 2.0) -
        (static_cast<double>(k_all) * h_all - static_cast<double>(k1) * best_h_left -
         static_cast<double>(k2) * best_h_right);
    const double threshold = (std::log2(n - 1.0) + delta) / n;
    if (gain <= threshold) return;

    // Cut point is the midpoint between the two boundary values (Weka style).
    cuts->push_back((obs[best_split - 1].value + obs[best_split].value) / 2.0);
    MdlPartition(obs, lo, best_split, num_classes, cuts);
    MdlPartition(obs, best_split, hi, num_classes, cuts);
}

}  // namespace

std::vector<double> MdlDiscretizer::FindCutPoints(
    const std::vector<double>& values, const std::vector<ClassLabel>& labels,
    std::size_t num_classes) const {
    std::vector<Obs> obs(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) obs[i] = {values[i], labels[i]};
    std::sort(obs.begin(), obs.end(),
              [](const Obs& a, const Obs& b) { return a.value < b.value; });
    std::vector<double> cuts;
    MdlPartition(obs, 0, obs.size(), num_classes, &cuts);
    std::sort(cuts.begin(), cuts.end());
    return cuts;
}

}  // namespace dfp
