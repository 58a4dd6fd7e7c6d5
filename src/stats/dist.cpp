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

double RegularizedGammaQ(double a, double x) {
    if (!(a > 0.0) || std::isnan(x) || x < 0.0) return kNan;
    if (x == 0.0) return 1.0;
    if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
    return GammaQContinuedFraction(a, x);
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

double Erfc(double x) {
    if (std::isnan(x)) return x;
    if (x < 0.0) return 2.0 - Erfc(-x);
    if (x == kInf) return 0.0;
    const double x2 = x * x;
    if (x2 < 1.5) return 1.0 - (x == 0.0 ? 0.0 : GammaPSeries(0.5, x2));
    return GammaQContinuedFraction(0.5, x2);
}

double NormalSurvival(double z) { return 0.5 * Erfc(z * kSqrt1_2); }

}  // namespace stats
}  // namespace dfp
