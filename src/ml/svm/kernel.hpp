// Kernel functions for the SVM (the paper uses LIBSVM's linear and RBF).
#pragma once

#include <cstddef>
#include <string>

namespace dfp {

enum class KernelType { kLinear, kRbf, kPolynomial };

struct KernelParams {
    KernelType type = KernelType::kLinear;
    /// RBF: K(x,y) = exp(−γ‖x−y‖²); polynomial: (γ·x·y + coef0)^degree.
    double gamma = 0.5;
    double coef0 = 0.0;
    int degree = 3;
};

/// K(a, b) of two 0/1 vectors from dot = |a ∧ b| and their sizes |a|, |b|:
/// the dot product is dot and the squared distance |a| + |b| − 2·dot, both
/// exact integers, so the value equals the kernel summed over the same
/// vectors as doubles bit for bit. Training pairs two rows of B^{d'},
/// prediction a support vector and a packed row.
double BinaryKernelEval(const KernelParams& params, std::size_t dot,
                        std::size_t size_a, std::size_t size_b);

/// "linear", "rbf(γ=0.5)", ...
std::string KernelName(const KernelParams& params);

}  // namespace dfp
