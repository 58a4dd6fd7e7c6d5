#include "core/minsup_strategy.hpp"

#include <algorithm>
#include <cmath>

#include "core/bounds.hpp"

namespace dfp {

namespace {

// Largest θ in [0, theta_max] with bound(θ) ≤ threshold, for a bound that is
// monotone non-decreasing on that interval. Bisection to ~1e-7 resolution.
template <typename BoundFn>
double LargestThetaBelow(BoundFn bound, double threshold, double theta_max) {
    if (bound(theta_max) <= threshold) return theta_max;
    if (bound(0.0) > threshold) return 0.0;
    double lo = 0.0;
    double hi = theta_max;
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (bound(mid) <= threshold) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return lo;
}

// The monotone-increasing region shared by every class's one-vs-rest bound:
// [0, min over non-degenerate classes of min(p_c, 1−p_c)].
double MonotoneCeiling(const std::vector<double>& priors) {
    double ceiling = 0.5;
    for (double p : priors) {
        if (p <= 0.0 || p >= 1.0) continue;
        ceiling = std::min(ceiling, std::min(p, 1.0 - p));
    }
    return ceiling;
}

MinSupRecommendation MakeRecommendation(double theta_star, double bound_value,
                                        std::size_t n) {
    MinSupRecommendation rec;
    rec.theta_star = theta_star;
    rec.bound_at_theta_star = bound_value;
    rec.min_sup_abs = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(theta_star * static_cast<double>(n))));
    return rec;
}

}  // namespace

MinSupRecommendation RecommendMinSup(double ig0, const std::vector<double>& priors,
                                     std::size_t n) {
    auto bound = [&priors](double theta) {
        double b = 0.0;
        for (double p : priors) b = std::max(b, IgUpperBound(theta, p));
        return b;
    };
    const double theta_star = LargestThetaBelow(bound, ig0, MonotoneCeiling(priors));
    return MakeRecommendation(theta_star, bound(theta_star), n);
}

MinSupRecommendation RecommendMinSupFisher(double fisher0,
                                           const std::vector<double>& priors,
                                           std::size_t n) {
    auto bound = [&priors](double theta) {
        double b = 0.0;
        for (double p : priors) b = std::max(b, FisherUpperBound(theta, p));
        return b;
    };
    // Fr_ub diverges at θ = p, so stay strictly inside the monotone window.
    const double ceiling = MonotoneCeiling(priors) * (1.0 - 1e-9);
    const double theta_star = LargestThetaBelow(bound, fisher0, ceiling);
    return MakeRecommendation(theta_star, bound(theta_star), n);
}

std::vector<MinSupRecommendation> MinSupEscalationLadder(
    double theta_start, const std::vector<double>& priors, std::size_t n,
    std::size_t rungs) {
    std::vector<MinSupRecommendation> ladder;
    if (rungs == 0 || n == 0) return ladder;
    auto bound = [&priors](double theta) {
        double b = 0.0;
        for (double p : priors) b = std::max(b, IgUpperBound(theta, p));
        return b;
    };
    const double ceiling = MonotoneCeiling(priors);
    const double theta0 = std::clamp(theta_start, 0.0, ceiling);
    const double b0 = bound(theta0);
    const double b_top = bound(ceiling);
    std::size_t prev_abs = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(theta0 * static_cast<double>(n))));
    for (std::size_t k = 1; k <= rungs; ++k) {
        const double t = static_cast<double>(k) / static_cast<double>(rungs);
        const double target = b0 + t * (b_top - b0);
        double theta = LargestThetaBelow(bound, target, ceiling);
        std::size_t abs = static_cast<std::size_t>(
            std::ceil(theta * static_cast<double>(n)));
        // Guarantee progress even when the bound is flat or degenerate: every
        // rung must raise the absolute threshold, falling back to doubling.
        if (abs <= prev_abs) {
            abs = std::max(prev_abs + 1, prev_abs * 2);
            theta = std::min(1.0, static_cast<double>(abs) / static_cast<double>(n));
        }
        if (abs > n) break;
        MinSupRecommendation rec;
        rec.theta_star = theta;
        rec.min_sup_abs = abs;
        rec.bound_at_theta_star = bound(std::min(theta, ceiling));
        ladder.push_back(rec);
        prev_abs = abs;
    }
    return ladder;
}

}  // namespace dfp
