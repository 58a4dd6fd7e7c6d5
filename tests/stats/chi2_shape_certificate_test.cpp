// Certificate for the one-dof chi² shape: ChiSquareSurvival(x, 1) reads
// lnΓ(1/2) from a value set once, and must stay bitwise equal to the
// incomplete-gamma formula evaluated with a LogGamma call on every
// evaluation. The test-side copy below is that per-call form, the same
// series and continued fraction as stats/dist.cpp. It is checked
// across the series / continued-fraction boundary (x/2 = a + 1 = 1.5) and
// into the deep tails, where the p-values the significance filter ranks
// live.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/dist.hpp"

namespace dfp::stats {
namespace {

constexpr double kConvergeEps = 1e-16;
constexpr int kMaxIter = 1000;

double PerCallSeries(double a, double x) {
    double term = 1.0 / a;
    double sum = term;
    for (int n = 1; n < kMaxIter; ++n) {
        term *= x / (a + static_cast<double>(n));
        sum += term;
        if (std::fabs(term) < std::fabs(sum) * kConvergeEps) break;
    }
    return sum * std::exp(a * std::log(x) - x - LogGamma(a));
}

double PerCallContinuedFraction(double a, double x) {
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
    return std::exp(a * std::log(x) - x - LogGamma(a)) * h;
}

// Q(1/2, x/2) for x > 0, LogGamma called on every evaluation.
double PerCallSurvival(double x) {
    const double a = 0.5;
    const double half = 0.5 * x;
    if (half < a + 1.0) return 1.0 - PerCallSeries(a, half);
    return PerCallContinuedFraction(a, half);
}

std::vector<double> Statistics() {
    std::vector<double> xs;
    // Log-spaced from 1e-8 up to the underflow of the deep tail.
    for (double x = 1e-8; x < 1600.0; x *= 1.07) xs.push_back(x);
    // The boundary x = 3 (x/2 = 1.5) and its neighbours, a few ulps apart.
    double below = 3.0;
    double above = 3.0;
    for (int k = 0; k < 8; ++k) {
        xs.push_back(below);
        xs.push_back(above);
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, 4.0);
    }
    // Typical pattern chi² values and the BH-threshold neighbourhood.
    for (double x = 0.5; x < 40.0; x += 0.37) xs.push_back(x);
    return xs;
}

TEST(ChiSquareShapeCertificateTest, OneDofEqualsPerCallLogGammaBitwise) {
    std::size_t series = 0;
    std::size_t fraction = 0;
    std::size_t deep = 0;
    for (const double x : Statistics()) {
        const double q = ChiSquareSurvival(x, 1.0);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(q),
                  std::bit_cast<std::uint64_t>(PerCallSurvival(x)))
            << "survival at x = " << x;
        (0.5 * x < 1.5 ? series : fraction) += 1;
        if (q > 0.0 && q < 1e-100) ++deep;
    }
    // Both branches and the deep tail were actually exercised.
    EXPECT_GT(series, 50u);
    EXPECT_GT(fraction, 50u);
    EXPECT_GT(deep, 10u);
}

// Other shapes still call LogGamma per evaluation; the same copy with
// a = dof/2 must agree for them too.
TEST(ChiSquareShapeCertificateTest, OtherShapesEqualPerCallLogGammaBitwise) {
    for (const double dof : {2.0, 3.0, 7.0}) {
        const double a = 0.5 * dof;
        for (double x = 0.01; x < 200.0; x *= 1.3) {
            const double half = 0.5 * x;
            const double want = half < a + 1.0
                                    ? 1.0 - PerCallSeries(a, half)
                                    : PerCallContinuedFraction(a, half);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(ChiSquareSurvival(x, dof)),
                      std::bit_cast<std::uint64_t>(want))
                << "dof " << dof << " x " << x;
        }
    }
}

}  // namespace
}  // namespace dfp::stats
