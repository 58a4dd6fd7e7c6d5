#include "ml/svm/kernel.hpp"

#include <cmath>

#include "common/string_util.hpp"

namespace dfp {

double BinaryKernelEval(const KernelParams& params, std::size_t dot,
                        std::size_t size_a, std::size_t size_b) {
    switch (params.type) {
        case KernelType::kLinear:
            return static_cast<double>(dot);
        case KernelType::kRbf:
            return std::exp(-params.gamma *
                            static_cast<double>(size_a + size_b - 2 * dot));
        case KernelType::kPolynomial:
            return std::pow(params.gamma * static_cast<double>(dot) + params.coef0,
                            params.degree);
    }
    return 0.0;
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
