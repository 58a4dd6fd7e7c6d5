#include "ml/svm/kernel.hpp"

#include <cassert>
#include <cmath>

#include "common/string_util.hpp"

namespace dfp {

namespace {

// K from the dot product and the squared distance, shared by both entry
// points so they stay the same formula.
double KernelOf(const KernelParams& params, double dot, double squared_distance) {
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

}  // namespace

double KernelEval(const KernelParams& params, std::span<const double> a,
                  std::span<const double> b) {
    assert(a.size() == b.size());
    double dot = 0.0;
    double squared_distance = 0.0;
    if (params.type == KernelType::kRbf) {
        for (std::size_t i = 0; i < a.size(); ++i) {
            const double d = a[i] - b[i];
            squared_distance += d * d;
        }
    } else {
        for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
    }
    return KernelOf(params, dot, squared_distance);
}

double BinaryKernelEval(const KernelParams& params, std::size_t dot,
                        std::size_t size_a, std::size_t size_b) {
    return KernelOf(params, static_cast<double>(dot),
                    static_cast<double>(size_a + size_b - 2 * dot));
}

std::string KernelName(const KernelParams& params) {
    switch (params.type) {
        case KernelType::kLinear: return "linear";
        case KernelType::kRbf: return StrFormat("rbf(gamma=%g)", params.gamma);
        case KernelType::kPolynomial:
            return StrFormat("poly(gamma=%g,coef0=%g,degree=%d)", params.gamma,
                             params.coef0, params.degree);
    }
    return "?";
}

}  // namespace dfp
