// From-scratch special functions and distribution tails (DESIGN.md §18).
//
// The significance layer (stats/significance.hpp) needs exactly three
// p-values: the chi-square survival (Pearson test), the hypergeometric upper
// tail (one-sided Fisher exact test) and the normal survival (odds-ratio
// z-bound), plus the gamma/factorial machinery underneath them. Rather than
// vendoring dcdflib (the classic exemplar, see SNIPPETS.md snippet 2) we
// implement the few functions we need in modern C++: every routine below is
// pure, allocation-free, thread-safe, and carries a documented accuracy bound
// backed by golden tests against high-precision (mpmath, 50-digit) reference
// values (tests/stats/dist_test.cpp).
//
// Accuracy bounds (verified by the golden suite; "rel" = relative error):
//  * LogGamma            rel < 1e-13  for x in (0, 1e8]          (Lanczos g=7)
//  * RegularizedGammaQ   rel < 1e-12  for a in (0, 1e4], typical inputs;
//                        the series/continued-fraction split at x = a+1 keeps
//                        both branches in their convergent regime
//  * ChiSquareSurvival   inherits the gamma bound (rel < 1e-12)
//  * LogFactorial        rel < 1e-14  (long-double cumulative table for
//                        n < 2048, LogGamma above)
//  * HypergeomLogPmf     abs < 1e-11 in log space (nine LogFactorial terms)
//  * HypergeomUpperTail / FisherExactGreater
//                        rel < 1e-10  (sums of <= support-size exact PMFs)
//  * Erfc                rel < 1e-12  for |x| <= 26 (erfc underflows ~x=27)
//  * NormalSurvival      rel < 1e-12  down to p ~ 1e-300
#pragma once

#include <cstddef>

namespace dfp {
namespace stats {

/// ln Γ(x) for x > 0 (Lanczos approximation, g = 7, 9 coefficients; the
/// reflection formula extends it to non-integer x < 0, which the library
/// itself never needs). Returns +inf at x = 0 and NaN for negative integers.
double LogGamma(double x);

/// Regularized upper incomplete gamma Q(a, x) = Γ(a, x) / Γ(a), a > 0,
/// x >= 0: one minus the series expansion of P(a, x) for x < a + 1, the Lentz
/// continued fraction for Q itself otherwise, so each branch is evaluated in
/// its convergent regime.
double RegularizedGammaQ(double a, double x);

/// Chi-square survival function with `dof` degrees of freedom, computed
/// directly as Q(dof/2, x/2) so deep tails keep full relative precision (no
/// 1 - CDF cancellation).
double ChiSquareSurvival(double x, double dof);

/// ln n! — cumulative long-double table for n < 2048 (rel < 1e-16 across the
/// table), LogGamma(n + 1) above it.
double LogFactorial(std::size_t n);

/// ln C(n, k); -inf for k > n (the binomial coefficient is 0).
double LogChoose(std::size_t n, std::size_t k);

/// Hypergeometric log-PMF: drawing `draws` objects without replacement from
/// a population of `population` containing `successes` marked objects,
/// ln P[X = k]. Returns -inf outside the support
/// [max(0, draws + successes - population), min(draws, successes)].
double HypergeomLogPmf(std::size_t k, std::size_t successes,
                       std::size_t draws, std::size_t population);

/// Upper tail P[X >= k], a direct sum of exact PMF terms over the support
/// (never 1 - complement, so tiny tails keep relative precision).
double HypergeomUpperTail(std::size_t k, std::size_t successes,
                          std::size_t draws, std::size_t population);

/// A 2×2 contingency table of a binary feature X against a binary class
/// split C (one-vs-rest in the significance layer):
///
///              C = c   C ≠ c
///   X = 1        a       b      (pattern present)
///   X = 0        c       d      (pattern absent)
struct Table2x2 {
    std::size_t a = 0;
    std::size_t b = 0;
    std::size_t c = 0;
    std::size_t d = 0;

    std::size_t n() const { return a + b + c + d; }
    std::size_t row1() const { return a + b; }  ///< support of X
    std::size_t col1() const { return a + c; }  ///< size of class c
};

/// Pearson chi-square statistic of the table (1 degree of freedom). Returns
/// 0 when any margin is zero (the test is undefined; callers treat the
/// pattern as non-significant).
double ChiSquareStatistic(const Table2x2& t);

/// One-sided Fisher exact test p-value on the table's hypergeometric null
/// (margins fixed, X ~ Hypergeom(population=n, successes=col1, draws=row1)):
/// P[X >= a] — "pattern over-represented in class c", the test the
/// significance filter uses.
double FisherExactGreater(const Table2x2& t);

/// erfc via the incomplete gamma: erfc(x) = Q(1/2, x²) for x >= 0, fully
/// accurate in the far tail (continued-fraction branch); erfc(+∞) = 0 and
/// erfc(−∞) = 2.
double Erfc(double x);

/// Standard normal survival 1 - Φ(z) = erfc(z/√2)/2.
double NormalSurvival(double z);

}  // namespace stats
}  // namespace dfp
