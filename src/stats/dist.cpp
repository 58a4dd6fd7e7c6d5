#include "stats/dist.hpp"

#include <array>
#include <cmath>
#include <limits>

namespace dfp {
namespace stats {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
// Series / continued-fraction convergence: stop when the running term no
// longer moves the sum at double precision.
constexpr double kConvergeEps = 1e-16;
constexpr int kMaxIter = 1000;
constexpr double kSqrt2Pi = 2.5066282746310005024;
constexpr double kLnPi = 1.1447298858494001741;
constexpr double kSqrt1_2 = 0.70710678118654752440;

// lnΓ(a) of the gamma shape: the one-dof chi² shape a = 1/2 reads a value
// set once from the same LogGamma(0.5) call, so every p-value is bitwise what
// a per-call LogGamma gives, without its Lanczos sum on every call.
double LogGammaOfShape(double a) {
    static const double kLogGammaHalf = LogGamma(0.5);
    return a == 0.5 ? kLogGammaHalf : LogGamma(a);
}

// Series expansion of P(a, x), convergent (and fast) for x < a + 1:
// P(a, x) = x^a e^-x / Γ(a+1) · Σ_{n>=0} x^n / ((a+1)...(a+n)).
double GammaPSeries(double a, double x) {
    double term = 1.0 / a;
    double sum = term;
    for (int n = 1; n < kMaxIter; ++n) {
        term *= x / (a + static_cast<double>(n));
        sum += term;
        if (std::fabs(term) < std::fabs(sum) * kConvergeEps) break;
    }
    return sum * std::exp(a * std::log(x) - x - LogGammaOfShape(a));
}

// Lentz's continued fraction for Q(a, x), convergent for x >= a + 1:
// Q(a, x) = x^a e^-x / Γ(a) · 1/(x+1-a- 1·(1-a)/(x+3-a- 2·(2-a)/(...))).
double GammaQContinuedFraction(double a, double x) {
    constexpr double kTiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / kTiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i < kMaxIter; ++i) {
        const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
        b += 2.0;
        d = an * d + b;
        if (std::fabs(d) < kTiny) d = kTiny;
        c = b + an / c;
        if (std::fabs(c) < kTiny) c = kTiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::fabs(delta - 1.0) < kConvergeEps) break;
    }
    return std::exp(a * std::log(x) - x - LogGammaOfShape(a)) * h;
}

}  // namespace

double LogGamma(double x) {
    if (std::isnan(x)) return x;
    if (x == 0.0) return kInf;
    if (x < 0.5) {
        // Reflection lnΓ(x) = ln π − ln|sin πx| − lnΓ(1−x) keeps the Lanczos
        // argument in its accurate range; negative integers are poles
        // (checked explicitly — sin(πx) rounds to a nonzero double there).
        if (x < 0.0 && x == std::floor(x)) return kNan;
        const double s = std::sin(M_PI * x);
        if (s == 0.0) return kNan;
        return kLnPi - std::log(std::fabs(s)) - LogGamma(1.0 - x);
    }
    // Lanczos approximation, g = 7, 9 coefficients (rel err < 1e-13).
    static constexpr double kCoef[9] = {
        0.99999999999980993,      676.5203681218851,     -1259.1392167224028,
        771.32342877765313,      -176.61502916214059,    12.507343278686905,
        -0.13857109526572012,    9.9843695780195716e-6,  1.5056327351493116e-7};
    const double z = x - 1.0;
    double sum = kCoef[0];
    for (int i = 1; i < 9; ++i) {
        sum += kCoef[i] / (z + static_cast<double>(i));
    }
    const double t = z + 7.5;  // z + g + 1/2
    return std::log(kSqrt2Pi) + (z + 0.5) * std::log(t) - t + std::log(sum);
}

double RegularizedGammaP(double a, double x) {
    if (!(a > 0.0) || std::isnan(x) || x < 0.0) return kNan;
    if (x == 0.0) return 0.0;
    if (x < a + 1.0) return GammaPSeries(a, x);
    return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
    if (!(a > 0.0) || std::isnan(x) || x < 0.0) return kNan;
    if (x == 0.0) return 1.0;
    if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
    return GammaQContinuedFraction(a, x);
}

double ChiSquareCdf(double x, double dof) {
    if (!(dof > 0.0) || std::isnan(x)) return kNan;
    if (x <= 0.0) return 0.0;
    return RegularizedGammaP(0.5 * dof, 0.5 * x);
}

double ChiSquareSurvival(double x, double dof) {
    if (!(dof > 0.0) || std::isnan(x)) return kNan;
    if (x <= 0.0) return 1.0;
    return RegularizedGammaQ(0.5 * dof, 0.5 * x);
}

double LogFactorial(std::size_t n) {
    // Cumulative long-double table: each entry adds one logl, so the
    // accumulated rounding stays below 1e-16 relative across the table.
    static constexpr std::size_t kTableSize = 2048;
    static const std::array<double, kTableSize> kTable = [] {
        std::array<double, kTableSize> t{};
        long double acc = 0.0L;
        t[0] = 0.0;
        for (std::size_t i = 1; i < kTableSize; ++i) {
            acc += std::log(static_cast<long double>(i));
            t[i] = static_cast<double>(acc);
        }
        return t;
    }();
    if (n < kTableSize) return kTable[n];
    return LogGamma(static_cast<double>(n) + 1.0);
}

double LogChoose(std::size_t n, std::size_t k) {
    if (k > n) return -kInf;
    return LogFactorial(n) - LogFactorial(k) - LogFactorial(n - k);
}

namespace {

// Hypergeometric support bounds for (successes, draws, population).
std::size_t HypergeomLow(std::size_t successes, std::size_t draws,
                         std::size_t population) {
    return draws + successes > population ? draws + successes - population : 0;
}

std::size_t HypergeomHigh(std::size_t successes, std::size_t draws) {
    return draws < successes ? draws : successes;
}

}  // namespace

double HypergeomLogPmf(std::size_t k, std::size_t successes, std::size_t draws,
                       std::size_t population) {
    if (successes > population || draws > population) return kNan;
    if (k < HypergeomLow(successes, draws, population) ||
        k > HypergeomHigh(successes, draws)) {
        return -kInf;
    }
    return LogChoose(successes, k) +
           LogChoose(population - successes, draws - k) -
           LogChoose(population, draws);
}

double HypergeomPmf(std::size_t k, std::size_t successes, std::size_t draws,
                    std::size_t population) {
    const double lp = HypergeomLogPmf(k, successes, draws, population);
    if (std::isnan(lp)) return kNan;
    return std::exp(lp);
}

double HypergeomUpperTail(std::size_t k, std::size_t successes,
                          std::size_t draws, std::size_t population) {
    if (successes > population || draws > population) return kNan;
    const std::size_t lo = HypergeomLow(successes, draws, population);
    const std::size_t hi = HypergeomHigh(successes, draws);
    if (k <= lo) return 1.0;
    if (k > hi) return 0.0;
    // Direct sum of exact PMF terms (long-double accumulator): a deep tail
    // keeps its relative precision instead of dissolving into 1 − CDF.
    long double sum = 0.0L;
    for (std::size_t j = hi + 1; j-- > k;) {
        sum += static_cast<long double>(
            std::exp(HypergeomLogPmf(j, successes, draws, population)));
    }
    const double p = static_cast<double>(sum);
    return p > 1.0 ? 1.0 : p;
}

double HypergeomLowerTail(std::size_t k, std::size_t successes,
                          std::size_t draws, std::size_t population) {
    if (successes > population || draws > population) return kNan;
    const std::size_t lo = HypergeomLow(successes, draws, population);
    const std::size_t hi = HypergeomHigh(successes, draws);
    if (k >= hi) return 1.0;
    if (k < lo) return 0.0;
    long double sum = 0.0L;
    for (std::size_t j = lo; j <= k; ++j) {
        sum += static_cast<long double>(
            std::exp(HypergeomLogPmf(j, successes, draws, population)));
    }
    const double p = static_cast<double>(sum);
    return p > 1.0 ? 1.0 : p;
}

double ChiSquareStatistic(const Table2x2& t) {
    const double a = static_cast<double>(t.a);
    const double b = static_cast<double>(t.b);
    const double c = static_cast<double>(t.c);
    const double d = static_cast<double>(t.d);
    const double r1 = a + b;
    const double r0 = c + d;
    const double c1 = a + c;
    const double c0 = b + d;
    if (r1 == 0.0 || r0 == 0.0 || c1 == 0.0 || c0 == 0.0) return 0.0;
    const double n = r1 + r0;
    const double diff = a * d - b * c;
    return n * diff * diff / (r1 * r0 * c1 * c0);
}

double FisherExactGreater(const Table2x2& t) {
    return HypergeomUpperTail(t.a, t.col1(), t.row1(), t.n());
}

double FisherExactLess(const Table2x2& t) {
    return HypergeomLowerTail(t.a, t.col1(), t.row1(), t.n());
}

double FisherExactTwoSided(const Table2x2& t) {
    const std::size_t successes = t.col1();
    const std::size_t draws = t.row1();
    const std::size_t population = t.n();
    if (population == 0) return 1.0;
    const std::size_t lo = HypergeomLow(successes, draws, population);
    const std::size_t hi = HypergeomHigh(successes, draws);
    // Method of small p-values (R's fisher.test): sum every outcome at most
    // as likely as the observed one, with a 1 + 1e-7 slack for ties that
    // differ only by rounding.
    const double observed = HypergeomLogPmf(t.a, successes, draws, population);
    const double cutoff = observed + 1e-7;
    long double sum = 0.0L;
    for (std::size_t j = lo; j <= hi; ++j) {
        const double lp = HypergeomLogPmf(j, successes, draws, population);
        if (lp <= cutoff) sum += static_cast<long double>(std::exp(lp));
    }
    const double p = static_cast<double>(sum);
    return p > 1.0 ? 1.0 : p;
}

double Erf(double x) {
    if (std::isnan(x)) return x;
    if (x < 0.0) return -Erf(-x);
    if (x == 0.0) return 0.0;
    const double x2 = x * x;
    if (x2 < 1.5) return GammaPSeries(0.5, x2);
    return 1.0 - GammaQContinuedFraction(0.5, x2);
}

double Erfc(double x) {
    if (std::isnan(x)) return x;
    if (x < 0.0) return 2.0 - Erfc(-x);
    const double x2 = x * x;
    if (x2 < 1.5) return 1.0 - (x == 0.0 ? 0.0 : GammaPSeries(0.5, x2));
    return GammaQContinuedFraction(0.5, x2);
}

double NormalCdf(double z) { return 0.5 * Erfc(-z * kSqrt1_2); }

double NormalSurvival(double z) { return 0.5 * Erfc(z * kSqrt1_2); }

double NormalQuantile(double p) {
    if (std::isnan(p) || p < 0.0 || p > 1.0) return kNan;
    if (p == 0.0) return -kInf;
    if (p == 1.0) return kInf;
    // Acklam's rational initializer (rel err ~1.15e-9 over (0, 1)).
    static constexpr double kA[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                     -2.759285104469687e+02, 1.383577518672690e+02,
                                     -3.066479806614716e+01, 2.506628277459239e+00};
    static constexpr double kB[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                     -1.556989798598866e+02, 6.680131188771972e+01,
                                     -1.328068155288572e+01};
    static constexpr double kC[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                     -2.400758277161838e+00, -2.549732539343734e+00,
                                     4.374664141464968e+00,  2.938163982698783e+00};
    static constexpr double kD[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                                     2.445134137142996e+00, 3.754408661907416e+00};
    constexpr double kPLow = 0.02425;
    double x;
    if (p < kPLow) {
        const double q = std::sqrt(-2.0 * std::log(p));
        x = (((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q +
             kC[5]) /
            ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
    } else if (p <= 1.0 - kPLow) {
        const double q = p - 0.5;
        const double r = q * q;
        x = (((((kA[0] * r + kA[1]) * r + kA[2]) * r + kA[3]) * r + kA[4]) * r +
             kA[5]) *
            q /
            (((((kB[0] * r + kB[1]) * r + kB[2]) * r + kB[3]) * r + kB[4]) * r +
             1.0);
    } else {
        const double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q +
              kC[5]) /
            ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
    }
    // One Halley step against our own CDF lifts the initializer to full
    // double precision: e/φ(x) is the Newton step, the denominator the
    // second-order correction.
    const double e = NormalCdf(x) - p;
    const double u = e * kSqrt2Pi * std::exp(0.5 * x * x);
    if (std::isfinite(u)) x -= u / (1.0 + 0.5 * x * u);
    return x;
}

}  // namespace stats
}  // namespace dfp
