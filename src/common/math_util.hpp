// Small numeric helpers shared by the measure / bound code.
//
// All entropies in this library are in bits (log base 2), matching the
// information-gain plots in the paper.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace dfp {

/// x * log2(x) with the 0 log 0 = 0 convention.
inline double XLog2X(double x) {
    return (x <= 0.0) ? 0.0 : x * std::log2(x);
}

/// Entropy (bits) of a Bernoulli(p) variable; 0 at p ∈ {0, 1}.
inline double BinaryEntropy(double p) {
    if (p <= 0.0 || p >= 1.0) return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

/// Entropy (bits) of a discrete distribution given unnormalized non-negative
/// weights. Returns 0 for an all-zero input.
inline double Entropy(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return 0.0;
    double h = 0.0;
    for (double w : weights) h -= XLog2X(w / total);
    return h;
}

/// Entropy (bits) of the m integer counts count_at(0), …, count_at(m − 1),
/// read twice and never stored, so derived counts (say, totals minus a
/// feature's counts) need no buffer. Returns 0 for an all-zero input.
template <typename CountAt>
inline double EntropyOfCounts(std::size_t m, CountAt count_at) {
    double total = 0.0;
    for (std::size_t c = 0; c < m; ++c) total += static_cast<double>(count_at(c));
    if (total <= 0.0) return 0.0;
    double h = 0.0;
    for (std::size_t c = 0; c < m; ++c) {
        h -= XLog2X(static_cast<double>(count_at(c)) / total);
    }
    return h;
}

/// Entropy (bits) of a distribution given integer counts.
inline double EntropyCounts(const std::vector<std::size_t>& counts) {
    return EntropyOfCounts(counts.size(),
                           [&counts](std::size_t c) { return counts[c]; });
}

/// Approximate floating-point equality with absolute tolerance.
inline bool AlmostEqual(double a, double b, double eps = 1e-9) {
    return std::fabs(a - b) <= eps;
}

/// Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}

}  // namespace dfp
