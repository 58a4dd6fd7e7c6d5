// Theoretical upper bounds on discriminative power as a function of support
// (Section 3.1.2 of the paper).
//
// For a binary class variable with prior p = P(c = 1) and a binary feature X
// with support θ = P(x = 1), the conditional class distribution on the X = 1
// branch, q = P(c = 1 | x = 1), is constrained to the feasible interval
//   q ∈ [max(0, (p − (1 − θ))/θ), min(1, p/θ)].
// H(C|X) is concave in q, so its minimum over the interval is attained at an
// endpoint; evaluating both endpoints yields the *exact* bounds
//   IG_ub(θ)  = H(p) − min_q H(C|X)         (Eq. 2–3 generalized to all θ)
//   Fr_ub(θ)  = Z*/(Y − Z*),  Z* = θ·max over endpoints of (p − q)²,
//               Y = p(1−p)(1−θ)              (Eq. 5–6 generalized)
// matching the paper's case analysis (q = 1 for θ ≤ p, q = p/θ for θ > p, and
// symmetric cases). Fr_ub diverges to +inf as θ → p from below.
//
// For m > 2 classes an exact closed form does not exist; IgUpperBoundMulticlass
// evaluates the concave minimum over capped-simplex vertices reachable by
// greedy class packings (exact for m = 2; a tight practical bound otherwise).
#pragma once

#include <cstddef>
#include <vector>

namespace dfp {

/// Exact IG upper bound (bits) for support θ and binary class prior p.
/// Both arguments in [0, 1]. Returns 0 at θ ∈ {0, 1} and H(p) at θ = p.
double IgUpperBound(double theta, double p);

/// Exact Fisher-score upper bound for support θ and binary class prior p.
/// Returns +inf when the within-class variance can reach zero (θ in the
/// divergence window around p where a pure covered branch absorbs a class).
double FisherUpperBound(double theta, double p);

/// Practical IG upper bound for an m-class prior. Exact for m = 2.
double IgUpperBoundMulticlass(double theta, const std::vector<double>& priors);

}  // namespace dfp
