// Golden and property tests for the from-scratch CDF library (stats/dist).
//
// Golden values were generated with mpmath at 50-digit precision (Fisher /
// hypergeometric tails additionally cross-checked as exact rationals via
// Python fractions) and are asserted within the accuracy bounds documented
// in stats/dist.hpp.
#include "stats/dist.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace dfp {
namespace stats {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

::testing::AssertionResult RelNear(double actual, double expected,
                                   double rel_tol) {
    if (std::isnan(actual) || std::isnan(expected)) {
        return ::testing::AssertionFailure()
               << "NaN: actual=" << actual << " expected=" << expected;
    }
    if (expected == 0.0) {
        if (std::fabs(actual) <= rel_tol) return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "actual=" << actual << " expected exactly 0";
    }
    const double rel = std::fabs(actual - expected) / std::fabs(expected);
    if (rel <= rel_tol) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "actual=" << actual << " expected=" << expected
           << " rel_err=" << rel << " tol=" << rel_tol;
}

TEST(LogGammaTest, GoldenValues) {
    const struct {
        double x;
        double expected;
    } kCases[] = {
        {0.5, 0.57236494292470009},   {1.0, 0.0},
        {1.5, -0.12078223763524522},  {2.0, 0.0},
        {3.7, 1.4280723266653881},    {10.0, 12.801827480081470},
        {100.25, 360.28455963776423}, {1e4, 82099.717496442377},
        {1e8, 1742068066.1038347},
    };
    for (const auto& c : kCases) {
        if (c.expected == 0.0) {
            EXPECT_NEAR(LogGamma(c.x), 0.0, 1e-13) << "x=" << c.x;
        } else {
            EXPECT_TRUE(RelNear(LogGamma(c.x), c.expected, 1e-13))
                << "x=" << c.x;
        }
    }
    EXPECT_EQ(LogGamma(0.0), kInf);
    EXPECT_TRUE(std::isnan(LogGamma(-3.0)));  // pole
}

TEST(LogFactorialTest, GoldenValuesAcrossTableBoundary) {
    const struct {
        std::size_t n;
        double expected;
    } kCases[] = {
        {0, 0.0},
        {1, 0.0},
        {5, 4.7874917427820460},
        {170, 706.57306224578735},
        {1000, 5912.1281784881633},
        {2047, 13564.326353384677},  // last table entry
        {5000, 37591.143508876767},  // LogGamma fallback
        {100000, 1051299.2218991219},
    };
    for (const auto& c : kCases) {
        if (c.expected == 0.0) {
            EXPECT_EQ(LogFactorial(c.n), 0.0) << "n=" << c.n;
        } else {
            EXPECT_TRUE(RelNear(LogFactorial(c.n), c.expected, 1e-14))
                << "n=" << c.n;
        }
    }
}

TEST(LogChooseTest, SmallValuesExactAndSymmetric) {
    EXPECT_TRUE(RelNear(LogChoose(5, 2), std::log(10.0), 1e-14));
    EXPECT_TRUE(RelNear(LogChoose(10, 3), std::log(120.0), 1e-14));
    EXPECT_EQ(LogChoose(7, 0), 0.0);
    EXPECT_EQ(LogChoose(7, 7), 0.0);
    EXPECT_EQ(LogChoose(3, 4), -kInf);
    for (std::size_t n = 1; n < 60; ++n) {
        for (std::size_t k = 0; k <= n; ++k) {
            EXPECT_DOUBLE_EQ(LogChoose(n, k), LogChoose(n, n - k));
        }
    }
}

TEST(RegularizedGammaTest, QSatisfiesTheShapeRecurrence) {
    // Q(a + 1, x) = Q(a, x) + x^a e^-x / Γ(a + 1), across both branches.
    const double as[] = {0.3, 0.5, 1.0, 2.5, 10.0, 100.0, 1000.0};
    const double xs[] = {0.1, 0.5, 1.0, 3.0, 10.0, 50.0, 200.0, 1500.0};
    for (double a : as) {
        for (double x : xs) {
            const double q = RegularizedGammaQ(a, x);
            EXPECT_GE(q, 0.0);
            EXPECT_LE(q, 1.0 + 1e-15);
            const double step = std::exp(a * std::log(x) - x - LogGamma(a + 1.0));
            EXPECT_NEAR(RegularizedGammaQ(a + 1.0, x), q + step, 1e-12)
                << "a=" << a << " x=" << x;
        }
    }
    // a = 1 is the exponential tail.
    for (double x : {0.1, 1.0, 5.0, 30.0}) {
        EXPECT_TRUE(RelNear(RegularizedGammaQ(1.0, x), std::exp(-x), 1e-12));
    }
    EXPECT_EQ(RegularizedGammaQ(1.0, 0.0), 1.0);
    EXPECT_TRUE(std::isnan(RegularizedGammaQ(0.0, 1.0)));
    EXPECT_TRUE(std::isnan(RegularizedGammaQ(1.0, -1.0)));
}

TEST(ChiSquareTest, SurvivalComplementsCdfGoldenValues) {
    const struct {
        double x;
        double dof;
        double expected;
    } kCases[] = {
        {0.001, 1, 0.025227120630039612}, {0.5, 1, 0.52049987781304654},
        {1.0, 1, 0.68268949213708590},    {3.841458820694124, 1, 0.95},
        {0.5, 2, 0.22119921692859513},    {5.0, 4, 0.71270250481635422},
        {10.0, 10, 0.55950671493478759},  {50.0, 30, 0.98759793928109942},
        {2.705543454095404, 1, 0.9},
    };
    // `expected` is the CDF; the survival must be its complement.
    for (const auto& c : kCases) {
        EXPECT_TRUE(
            RelNear(1.0 - ChiSquareSurvival(c.x, c.dof), c.expected, 1e-12))
            << "x=" << c.x << " dof=" << c.dof;
    }
}

TEST(ChiSquareTest, SurvivalGoldenValuesIncludingDeepTails) {
    const struct {
        double x;
        double dof;
        double expected;
    } kCases[] = {
        {3.841458820694124, 1, 0.05},
        {6.634896601021213, 1, 0.01},
        {100.0, 1, 1.5239706048321052e-23},
        {300.0, 2, 7.1750959731644104e-66},
        {50.0, 10, 2.6690834249044956e-7},
        {25.0, 1, 5.7330314375838782e-7},
        {0.001, 3, 0.99999159208094195},
    };
    for (const auto& c : kCases) {
        EXPECT_TRUE(RelNear(ChiSquareSurvival(c.x, c.dof), c.expected, 1e-12))
            << "x=" << c.x << " dof=" << c.dof;
    }
}

TEST(ChiSquareTest, SurvivalIsDecreasingInX) {
    for (double dof : {1.0, 2.0, 5.0, 10.0}) {
        double prev = 1.0;
        for (double x = 0.0; x <= 60.0; x += 0.25) {
            const double q = ChiSquareSurvival(x, dof);
            EXPECT_LE(q, prev) << "x=" << x << " dof=" << dof;
            prev = q;
        }
    }
}

TEST(ChiSquareTest, OneDofSurvivalMatchesErfc) {
    // χ²(1) is the square of a standard normal: Q(x, 1) = erfc(√(x/2)).
    for (double x : {0.01, 0.5, 1.0, 3.84, 10.0, 30.0, 100.0}) {
        EXPECT_TRUE(RelNear(ChiSquareSurvival(x, 1.0),
                            Erfc(std::sqrt(0.5 * x)), 1e-12))
            << "x=" << x;
    }
}

TEST(ChiSquareTest, EvenDofClosedForm) {
    // dof = 2: survival is exactly exp(-x/2).
    for (double x : {0.1, 1.0, 5.0, 20.0, 100.0}) {
        EXPECT_TRUE(
            RelNear(ChiSquareSurvival(x, 2.0), std::exp(-0.5 * x), 1e-12));
    }
}

TEST(ErfcTest, GoldenValues) {
    const struct {
        double x;
        double expected;
    } kCases[] = {
        {0.1, 0.88753708398171510},   {0.5, 0.47950012218695346},
        {1.0, 0.15729920705028513},   {2.0, 0.0046777349810472658},
        {5.0, 1.5374597944280349e-12}, {10.0, 2.0884875837625448e-45},
        {26.0, 5.6631924088561428e-296}, {-1.5, 1.9661051464753107},
    };
    for (const auto& c : kCases) {
        EXPECT_TRUE(RelNear(Erfc(c.x), c.expected, 1e-12)) << "x=" << c.x;
    }
    EXPECT_EQ(Erfc(0.0), 1.0);
    for (double x : {0.2, 0.9, 2.5, 4.0}) {
        EXPECT_NEAR(Erfc(-x) + Erfc(x), 2.0, 1e-14);
    }
}

TEST(NormalTest, SurvivalOfMirrorGoldenValues) {
    const struct {
        double z;
        double expected;
    } kCases[] = {
        {-8.0, 6.2209605742717841e-16}, {-3.0, 0.0013498980316300945},
        {-1.0, 0.15865525393145705},    {0.0, 0.5},
        {0.5, 0.69146246127401310},     {1.0, 0.84134474606854295},
        {1.959963984540054, 0.975},     {-37.0, 5.7255712225245768e-300},
    };
    // `expected` is Φ(z), which is the survival at −z.
    for (const auto& c : kCases) {
        EXPECT_TRUE(RelNear(NormalSurvival(-c.z), c.expected, 1e-12))
            << "z=" << c.z;
    }
}

TEST(NormalTest, MirroredSurvivalsSumToOne) {
    for (double z : {0.0, 0.1, 0.7, 1.0, 1.96, 3.5, 8.0, 20.0, 37.0}) {
        EXPECT_NEAR(NormalSurvival(z) + NormalSurvival(-z), 1.0, 1e-15)
            << "z=" << z;
    }
    EXPECT_EQ(NormalSurvival(0.0), 0.5);
}

TEST(NormalTest, SurvivalAtQuantileGoldenValues) {
    // (p, z) with Φ(z) = p, so the survival at −z must read p back.
    const struct {
        double p;
        double z;
    } kCases[] = {
        {1e-300, -37.047096299361199}, {1e-50, -14.933337534788603},
        {1e-16, -8.2220822161304356},  {1e-10, -6.3613409024040562},
        {0.001, -3.0902323061678135},  {0.025, -1.9599639845400542},
        {0.3, -0.52440051270804082},   {0.5, 0.0},
        {0.7, 0.52440051270804066},    {0.975, 1.9599639845400539},
        {0.999, 3.0902323061678133},
    };
    for (const auto& c : kCases) {
        EXPECT_TRUE(RelNear(NormalSurvival(-c.z), c.p, 1e-11)) << "p=" << c.p;
    }
    EXPECT_EQ(NormalSurvival(-kInf), 1.0);
    EXPECT_EQ(NormalSurvival(kInf), 0.0);
}

TEST(HypergeomTest, PmfAndTailGoldenValues) {
    // (k, successes, draws, population) — exact rationals via Python comb().
    const struct {
        std::size_t k, succ, draws, pop;
        double pmf, upper, lower;
    } kCases[] = {
        {3, 10, 12, 40, 0.30730320853161161, 0.64473886650057628,
         0.66256434203103533},
        {0, 10, 12, 40, 0.015481563157084979, 1.0, 0.015481563157084979},
        {12, 30, 12, 40, 0.015481563157084979, 0.015481563157084979, 1.0},
        {5, 18, 14, 45, 0.24064478545476844, 0.76332188683294752,
         0.47732289862182091},
        {120, 400, 300, 1000, 0.056138869605571666, 0.52732418041043937,
         0.52881468919513229},
    };
    // The lower tail P[X <= k] is the complement of the upper tail at k + 1.
    for (const auto& c : kCases) {
        EXPECT_TRUE(RelNear(std::exp(HypergeomLogPmf(c.k, c.succ, c.draws, c.pop)),
                            c.pmf, 1e-11))
            << "k=" << c.k;
        EXPECT_TRUE(RelNear(HypergeomUpperTail(c.k, c.succ, c.draws, c.pop),
                            c.upper, 1e-10))
            << "k=" << c.k;
        EXPECT_TRUE(
            RelNear(1.0 - HypergeomUpperTail(c.k + 1, c.succ, c.draws, c.pop),
                    c.lower, 1e-10))
            << "k=" << c.k;
    }
}

TEST(HypergeomTest, UpperTailStepsAreThePmf) {
    // P[X >= k] − P[X >= k+1] = P[X = k] for every k inside the support, and
    // the PMF sums to one over it.
    const std::size_t succ = 18, draws = 14, pop = 45;
    double total = 0.0;
    for (std::size_t k = 0; k <= 14; ++k) {
        const double pmf = std::exp(HypergeomLogPmf(k, succ, draws, pop));
        const double step = HypergeomUpperTail(k, succ, draws, pop) -
                            HypergeomUpperTail(k + 1, succ, draws, pop);
        EXPECT_NEAR(step, pmf, 1e-12) << "k=" << k;
        total += pmf;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_EQ(HypergeomLogPmf(15, succ, draws, pop), -kInf);  // outside support
    EXPECT_EQ(HypergeomUpperTail(15, succ, draws, pop), 0.0);
    EXPECT_EQ(HypergeomUpperTail(0, succ, draws, pop), 1.0);
}

TEST(HypergeomTest, AgreesWithNormalApproximationAtLargeN) {
    // At large N the hypergeometric tail must converge to
    // the continuity-corrected normal tail. N=20000, K=10000, n=1000 →
    // mean 500, sd ≈ 15.41.
    const std::size_t pop = 20000, succ = 10000, draws = 1000;
    const double mean = static_cast<double>(draws) * 0.5;
    const double sd = std::sqrt(static_cast<double>(draws) * 0.25 *
                                static_cast<double>(pop - draws) /
                                static_cast<double>(pop - 1));
    for (double sigmas : {1.0, 2.0, 3.0}) {
        const auto k = static_cast<std::size_t>(mean + sigmas * sd + 1.0);
        const double exact = HypergeomUpperTail(k, succ, draws, pop);
        const double z = (static_cast<double>(k) - 0.5 - mean) / sd;
        const double approx = NormalSurvival(z);
        EXPECT_TRUE(RelNear(exact, approx, 0.05))
            << "sigmas=" << sigmas << " exact=" << exact
            << " approx=" << approx;
    }
}

TEST(FisherExactTest, GoldenValues) {
    // Exact rationals computed with Python fractions over comb().
    const struct {
        Table2x2 t;
        double greater;
    } kCases[] = {
        {{8, 2, 1, 5}, 0.024475524475524476},
        {{10, 10, 10, 10}, 0.62381443271804543},
        {{2, 8, 5, 1}, 0.99912587412587413},
        {{50, 950, 30, 2970}, 8.4591396591147822e-13},
        {{5, 0, 0, 5}, 0.0039682539682539683},
        {{1, 9, 11, 3}, 0.99996634809530219},
    };
    for (const auto& c : kCases) {
        EXPECT_TRUE(RelNear(FisherExactGreater(c.t), c.greater, 1e-10));
    }
}

TEST(FisherExactTest, TailsAndPmfAreConsistent) {
    // Moving one count from b and c to a and d keeps the margins, so
    // P[X >= a] − P[X >= a+1] = P[X = a].
    const Table2x2 tables[] = {
        {8, 2, 1, 5}, {10, 10, 10, 10}, {3, 7, 9, 11}, {1, 1, 1, 1}};
    for (const Table2x2& t : tables) {
        const Table2x2 next{t.a + 1, t.b - 1, t.c - 1, t.d + 1};
        const double pmf =
            std::exp(HypergeomLogPmf(t.a, t.col1(), t.row1(), t.n()));
        EXPECT_NEAR(FisherExactGreater(t) - FisherExactGreater(next), pmf,
                    1e-12);
    }
}

TEST(FisherExactTest, GreaterDecreasesAlongTheSupport) {
    // Margins fixed (row1 = 10, col1 = 12, n = 30): the one-sided p-value is
    // 1 at the bottom of the support and falls strictly as a grows.
    double prev = FisherExactGreater(Table2x2{0, 10, 12, 8});
    EXPECT_NEAR(prev, 1.0, 1e-12);
    for (std::size_t a = 1; a <= 10; ++a) {
        const double p = FisherExactGreater(Table2x2{a, 10 - a, 12 - a, 8 + a});
        EXPECT_LT(p, prev) << "a=" << a;
        EXPECT_GT(p, 0.0) << "a=" << a;
        prev = p;
    }
}

TEST(ChiSquareStatisticTest, HandComputedTable) {
    // {8,2;1,5}: n=16, ad−bc=38 → 16·38²/(10·6·9·7) = 23104/3780.
    const Table2x2 t{8, 2, 1, 5};
    EXPECT_TRUE(RelNear(ChiSquareStatistic(t), 23104.0 / 3780.0, 1e-14));
    // Independent table → statistic 0.
    EXPECT_EQ(ChiSquareStatistic(Table2x2{5, 5, 5, 5}), 0.0);
    // Degenerate margins → 0 by convention.
    EXPECT_EQ(ChiSquareStatistic(Table2x2{0, 0, 3, 4}), 0.0);
    EXPECT_EQ(ChiSquareStatistic(Table2x2{3, 0, 4, 0}), 0.0);
}

}  // namespace
}  // namespace stats
}  // namespace dfp
