#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.hpp"

namespace dfp {

namespace {

// Feasible interval of q = P(c=1 | x=1) given prior p and support θ.
struct QInterval {
    double lo;
    double hi;
};

QInterval FeasibleQ(double theta, double p) {
    return {std::max(0.0, (p - (1.0 - theta)) / theta), std::min(1.0, p / theta)};
}

// H(C|X) in bits for binary class with prior p, support θ, covered-branch
// conditional q.
double ConditionalEntropy(double theta, double p, double q) {
    const double r = (p - theta * q) / (1.0 - theta);  // P(c=1 | x=0)
    return theta * BinaryEntropy(q) + (1.0 - theta) * BinaryEntropy(Clamp(r, 0.0, 1.0));
}

}  // namespace

double IgUpperBound(double theta, double p) {
    theta = Clamp(theta, 0.0, 1.0);
    p = Clamp(p, 0.0, 1.0);
    if (p <= 0.0 || p >= 1.0) return 0.0;  // H(C) = 0: nothing to gain
    if (theta <= 0.0 || theta >= 1.0) return 0.0;
    const QInterval q = FeasibleQ(theta, p);
    // H(C|X) is concave in q, so its minimum over the feasible interval is at
    // an endpoint (the paper's q = 1 / q = p/θ cases are these endpoints).
    const double h_min =
        std::min(ConditionalEntropy(theta, p, q.lo), ConditionalEntropy(theta, p, q.hi));
    const double ig = BinaryEntropy(p) - h_min;
    return ig < 0.0 ? 0.0 : ig;
}

double FisherUpperBound(double theta, double p) {
    theta = Clamp(theta, 0.0, 1.0);
    p = Clamp(p, 0.0, 1.0);
    if (p <= 0.0 || p >= 1.0) return 0.0;
    if (theta <= 0.0) return 0.0;
    if (theta >= 1.0) return 0.0;  // constant feature: no spread
    const QInterval q = FeasibleQ(theta, p);
    // Fr = Z/(Y−Z) is increasing in Z = θ(p−q)², so maximize |p−q| over the
    // feasible endpoints (Eq. 6 is the q = 1 instance of this).
    const double dev = std::max(std::fabs(p - q.lo), std::fabs(p - q.hi));
    const double z = theta * dev * dev;
    const double y = p * (1.0 - p) * (1.0 - theta);
    if (y - z <= 0.0) {
        // A feasible q makes the within-class variance vanish: unbounded score.
        return std::numeric_limits<double>::infinity();
    }
    return z / (y - z);
}

double IgUpperBoundMulticlass(double theta, const std::vector<double>& priors) {
    const std::size_t m = priors.size();
    if (m == 0) return 0.0;
    if (m <= 2) {
        const double p = priors.empty() ? 0.0 : priors[0];
        return IgUpperBound(theta, p);
    }
    theta = Clamp(theta, 0.0, 1.0);
    if (theta <= 0.0 || theta >= 1.0) return 0.0;
    const double h_c = Entropy(priors);

    // Classes sorted by descending prior for the greedy packings.
    std::vector<std::size_t> order(m);
    for (std::size_t i = 0; i < m; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&priors](std::size_t a, std::size_t b) { return priors[a] > priors[b]; });

    // Evaluate H(C|X) at the vertex where classes are packed fully into the
    // covered branch in `order`, with `frac` allowed to be split.
    auto vertex_entropy = [&](const std::vector<std::size_t>& pack_order) {
        std::vector<double> covered(m, 0.0);   // θ·q_i
        std::vector<double> uncovered = priors;  // (1−θ)·r_i mass
        double remaining = theta;
        for (std::size_t idx : pack_order) {
            if (remaining <= 0.0) break;
            const double take = std::min(priors[idx], remaining);
            covered[idx] = take;
            uncovered[idx] = priors[idx] - take;
            remaining -= take;
        }
        // Normalize branch masses into distributions via Entropy()'s internal
        // normalization; weight by branch probability.
        return theta * Entropy(covered) + (1.0 - theta) * Entropy(uncovered);
    };

    double h_min = vertex_entropy(order);
    // Also try promoting each class to the front of the packing, which covers
    // the "pure in class j" vertices the binary analysis corresponds to.
    for (std::size_t j = 0; j < m; ++j) {
        std::vector<std::size_t> promoted;
        promoted.push_back(j);
        for (std::size_t idx : order) {
            if (idx != j) promoted.push_back(idx);
        }
        h_min = std::min(h_min, vertex_entropy(promoted));
    }
    const double ig = h_c - h_min;
    return ig < 0.0 ? 0.0 : ig;
}

}  // namespace dfp
