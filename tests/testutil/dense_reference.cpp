#include "testutil/dense_reference.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dfp::testutil {

namespace {

std::vector<double> ReadDoubles(std::istream& in, std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) in >> x;
    return v;
}

DensePredictor NaiveBayesReference(std::istream& in) {
    std::size_t k = 0;
    std::size_t cols = 0;
    double smoothing = 0.0;
    in >> k >> cols >> smoothing;
    const std::vector<double> log_prior = ReadDoubles(in, k);
    const std::vector<double> log_on = ReadDoubles(in, k * cols);
    const std::vector<double> log_off = ReadDoubles(in, k * cols);
    return [=](std::span<const double> x) {
        ClassLabel best = 0;
        double best_score = -std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < k; ++c) {
            double score = log_prior[c];
            for (std::size_t f = 0; f < cols; ++f) {
                score += (x[f] > 0.5) ? log_on[c * cols + f] : log_off[c * cols + f];
            }
            if (score > best_score) {
                best_score = score;
                best = static_cast<ClassLabel>(c);
            }
        }
        return best;
    };
}

DensePredictor C45Reference(std::istream& in) {
    struct Node {
        bool leaf = true;
        ClassLabel label = 0;
        std::size_t feature = 0;
        double threshold = 0.0;
        std::int32_t left = -1;
        std::int32_t right = -1;
    };
    std::size_t k = 0;
    std::int32_t root = -1;
    std::size_t count = 0;
    in >> k >> root >> count;
    std::vector<Node> nodes(count);
    for (Node& node : nodes) {
        int leaf = 0;
        std::size_t n = 0;
        std::size_t errors = 0;
        in >> leaf >> node.label >> n >> errors >> node.feature >> node.threshold >>
            node.left >> node.right;
        node.leaf = leaf != 0;
    }
    return [=](std::span<const double> x) {
        std::int32_t idx = root;
        while (idx >= 0 && !nodes[idx].leaf) {
            const Node& node = nodes[idx];
            idx = (x[node.feature] <= node.threshold) ? node.left : node.right;
        }
        return idx >= 0 ? nodes[idx].label : ClassLabel{0};
    };
}

DensePredictor SvmReference(std::istream& in) {
    struct Machine {
        ClassLabel positive = 0;
        ClassLabel negative = 0;
        double bias = 0.0;
        std::vector<double> w;
        std::vector<std::vector<double>> sv;
        std::vector<double> sv_coef;
    };
    int type = 0;
    KernelParams kernel;
    double c = 0.0;
    std::size_t k = 0;
    std::size_t count = 0;
    in >> type >> kernel.gamma >> kernel.coef0 >> kernel.degree >> c >> k >> count;
    kernel.type = static_cast<KernelType>(type);
    std::vector<Machine> machines(count);
    for (Machine& m : machines) {
        std::size_t w_size = 0;
        in >> m.positive >> m.negative >> m.bias >> w_size;
        m.w = ReadDoubles(in, w_size);
        std::size_t sv_count = 0;
        std::size_t dim = 0;
        in >> sv_count >> dim;
        m.sv_coef.resize(sv_count);
        for (std::size_t i = 0; i < sv_count; ++i) {
            in >> m.sv_coef[i];
            m.sv.push_back(ReadDoubles(in, dim));
        }
    }
    return [=](std::span<const double> x) {
        std::vector<double> votes(k, 0.0);
        std::vector<double> margins(k, 0.0);
        for (const Machine& m : machines) {
            double f = m.bias;
            if (!m.w.empty()) {
                double dot = 0.0;
                for (std::size_t d = 0; d < m.w.size(); ++d) dot += m.w[d] * x[d];
                f = dot + m.bias;
            } else {
                for (std::size_t i = 0; i < m.sv.size(); ++i) {
                    f += m.sv_coef[i] * KernelEval(kernel, m.sv[i], x);
                }
            }
            if (f >= 0.0) {
                votes[m.positive] += 1.0;
            } else {
                votes[m.negative] += 1.0;
            }
            margins[m.positive] += f;
            margins[m.negative] -= f;
        }
        std::size_t best = 0;
        for (std::size_t cl = 1; cl < k; ++cl) {
            if (votes[cl] > votes[best] ||
                (votes[cl] == votes[best] && margins[cl] > margins[best])) {
                best = cl;
            }
        }
        return static_cast<ClassLabel>(best);
    };
}

}  // namespace

double KernelEval(const KernelParams& params, std::span<const double> a,
                  std::span<const double> b) {
    assert(a.size() == b.size());
    double dot = 0.0;
    double squared_distance = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        squared_distance += d * d;
        dot += a[i] * b[i];
    }
    switch (params.type) {
        case KernelType::kLinear:
            return dot;
        case KernelType::kRbf:
            return std::exp(-params.gamma * squared_distance);
        case KernelType::kPolynomial:
            return std::pow(params.gamma * dot + params.coef0, params.degree);
    }
    return 0.0;
}

std::vector<double> DenseRow(std::span<const std::uint64_t> row, std::size_t cols) {
    std::vector<double> out(cols, 0.0);
    for (std::size_t c = 0; c < cols; ++c) {
        if ((row[c / 64] >> (c % 64)) & 1u) out[c] = 1.0;
    }
    return out;
}

std::vector<double> DenseRow(const FeatureMatrix& x, std::size_t r) {
    std::vector<double> out(x.cols(), 0.0);
    for (std::size_t c = 0; c < x.cols(); ++c) {
        if (x.Test(r, c)) out[c] = 1.0;
    }
    return out;
}

DensePredictor DenseReference(const Classifier& learner) {
    std::stringstream saved;
    if (!learner.SaveModel(saved).ok()) {
        throw std::runtime_error("learner '" + learner.Name() + "' did not save");
    }
    std::string tag;
    saved >> tag;
    if (tag == "nb-model") return NaiveBayesReference(saved);
    if (tag == "c45-model") return C45Reference(saved);
    if (tag == "svm-model") return SvmReference(saved);
    throw std::runtime_error("no dense reference for '" + tag + "'");
}

}  // namespace dfp::testutil
