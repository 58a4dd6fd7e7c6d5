// The min_sup setting strategy of Section 3.2.
//
// Instead of guessing a support threshold, the user picks a discriminative-
// power threshold (information gain IG0 or Fisher score F0, for which mature
// feature-selection guidance exists) and the strategy maps it to the largest
// support threshold θ* whose theoretical upper bound stays below it:
//     θ* = argmax_θ { IG_ub(θ) ≤ IG0 }          (Eq. 8)
// Every pattern with support ≤ θ* would be filtered by the measure threshold
// anyway (IG(θ) ≤ IG_ub(θ) ≤ IG_ub(θ*) ≤ IG0), so mining with min_sup = θ*
// provably loses no feature candidate while pruning the search space.
#pragma once

#include <cstddef>
#include <vector>

namespace dfp {

/// Output of the strategy.
struct MinSupRecommendation {
    /// θ* as a relative support in [0, 1].
    double theta_star = 0.0;
    /// ceil(θ* · n), clamped to ≥ 1 — ready to use as MinerConfig::min_sup_abs.
    std::size_t min_sup_abs = 1;
    /// The bound value at θ* (≤ the requested threshold by construction).
    double bound_at_theta_star = 0.0;
};

/// Maps an information-gain threshold to θ*. `priors` is the training class
/// distribution; `n` the number of training transactions. The bound used is
/// max over classes of the one-vs-rest IG bound, which is monotone increasing
/// on the searched interval [0, min_c min(p_c, 1−p_c)].
MinSupRecommendation RecommendMinSup(double ig0, const std::vector<double>& priors,
                                     std::size_t n);

/// Same strategy driven by a Fisher-score threshold (the paper notes either
/// measure works; Fr_ub is also monotone increasing below the smallest prior).
MinSupRecommendation RecommendMinSupFisher(double fisher0,
                                           const std::vector<double>& priors,
                                           std::size_t n);

/// Principled degradation ladder for budget-exhausted mining: starting from
/// the threshold θ_start that proved too explosive, returns up to `rungs`
/// strictly coarser thresholds climbing toward the IG bound's monotone
/// ceiling. Rung k is the largest θ whose IG_ub stays below a bound target
/// equally spaced between IG_ub(θ_start) and IG_ub(ceiling) — so each retry
/// gives up discriminative-power headroom in even steps rather than blindly
/// doubling min_sup. Each rung's min_sup_abs is guaranteed strictly greater
/// than its predecessor's (with a doubling fallback when the bound is flat),
/// and rungs that would exceed n are dropped.
std::vector<MinSupRecommendation> MinSupEscalationLadder(
    double theta_start, const std::vector<double>& priors, std::size_t n,
    std::size_t rungs = 4);

}  // namespace dfp
