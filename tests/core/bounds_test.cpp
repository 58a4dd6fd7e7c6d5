#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math_util.hpp"

namespace dfp {
namespace {

TEST(IgBoundTest, ZeroAtDegenerateSupports) {
    EXPECT_DOUBLE_EQ(IgUpperBound(0.0, 0.3), 0.0);
    EXPECT_DOUBLE_EQ(IgUpperBound(1.0, 0.3), 0.0);
}

TEST(IgBoundTest, ZeroForDegeneratePrior) {
    EXPECT_DOUBLE_EQ(IgUpperBound(0.5, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(IgUpperBound(0.5, 1.0), 0.0);
}

TEST(IgBoundTest, ReachesClassEntropyAtThetaEqualsP) {
    // At θ = p the covered branch can be exactly class 1 → IG = H(C).
    for (double p : {0.2, 0.35, 0.5}) {
        EXPECT_NEAR(IgUpperBound(p, p), BinaryEntropy(p), 1e-9);
    }
}

TEST(IgBoundTest, MatchesPaperClosedFormBelowP) {
    // For θ ≤ p with q = 1 the bound is H(p) − (1−θ)·H((p−θ)/(1−θ)) (Eq. 3).
    const double p = 0.4;
    for (double theta : {0.05, 0.1, 0.2, 0.3}) {
        const double expected =
            BinaryEntropy(p) -
            (1.0 - theta) * BinaryEntropy((p - theta) / (1.0 - theta));
        EXPECT_NEAR(IgUpperBound(theta, p), expected, 1e-12) << "theta=" << theta;
    }
}

TEST(IgBoundTest, MatchesNumericMinimizationOverQ) {
    // Independent check: IG_ub(θ) = H(p) − min over feasible q of H(C|X).
    // A fine grid over q approximates the exact concave minimum (which sits at
    // a feasible endpoint, so the grid min matches to grid resolution).
    for (double p : {0.2, 0.3, 0.5}) {
        for (double theta : {0.05, 0.2, 0.35, 0.5, 0.6, 0.8, 0.95}) {
            const double q_lo = std::max(0.0, (p - (1.0 - theta)) / theta);
            const double q_hi = std::min(1.0, p / theta);
            double h_min = 1e9;
            const int grid = 10000;
            for (int g = 0; g <= grid; ++g) {
                const double q = q_lo + (q_hi - q_lo) * g / grid;
                const double r = (p - theta * q) / (1.0 - theta);
                const double h = theta * BinaryEntropy(q) +
                                 (1.0 - theta) * BinaryEntropy(Clamp(r, 0.0, 1.0));
                h_min = std::min(h_min, h);
            }
            EXPECT_NEAR(IgUpperBound(theta, p), BinaryEntropy(p) - h_min, 1e-6)
                << "p=" << p << " theta=" << theta;
        }
    }
}

TEST(IgBoundTest, PaperCaseExpressionsAreNeverAboveTheBound) {
    // The paper's candidate minimizers (q = 1 for θ ≤ p; q = p/θ and
    // q = 1 − (1−p)/θ for θ > p) each induce an achievable IG; the exact
    // envelope must dominate every one of them.
    for (double p : {0.2, 0.4}) {
        for (double theta = 0.05; theta < 1.0; theta += 0.05) {
            const double bound = IgUpperBound(theta, p);
            if (theta <= p) {
                const double ig =
                    BinaryEntropy(p) -
                    (1.0 - theta) * BinaryEntropy((p - theta) / (1.0 - theta));
                EXPECT_GE(bound + 1e-12, ig) << "p=" << p << " theta=" << theta;
            } else {
                const double ig = BinaryEntropy(p) - theta * BinaryEntropy(p / theta);
                EXPECT_GE(bound + 1e-12, ig) << "p=" << p << " theta=" << theta;
            }
        }
    }
}

TEST(IgBoundTest, MonotoneIncreasingBelowP) {
    const double p = 0.4;
    double prev = 0.0;
    for (double theta = 0.01; theta < p; theta += 0.01) {
        const double bound = IgUpperBound(theta, p);
        EXPECT_GE(bound, prev - 1e-12) << "theta=" << theta;
        prev = bound;
    }
}

TEST(IgBoundTest, CurveOverThetaRisesToPAndFallsAfter) {
    // Balanced binary classes: the curve over θ ∈ [0, 1] is 0 at both ends,
    // peaks at 1 bit at θ = p = 0.5 and mirrors around it.
    std::vector<double> curve;
    for (int i = 0; i <= 100; ++i) curve.push_back(IgUpperBound(i / 100.0, 0.5));
    EXPECT_NEAR(curve.front(), 0.0, 1e-9);
    EXPECT_NEAR(curve.back(), 0.0, 1e-9);
    EXPECT_NEAR(curve[50], 1.0, 1e-9);
    for (int i = 0; i < 100; ++i) {
        if (i < 50) {
            EXPECT_GE(curve[i + 1], curve[i] - 1e-12) << "i=" << i;
        } else {
            EXPECT_LE(curve[i + 1], curve[i] + 1e-12) << "i=" << i;
        }
        EXPECT_NEAR(curve[i], curve[100 - i], 1e-9) << "i=" << i;
    }
}

TEST(IgBoundTest, LowSupportMeansLowBound) {
    // The paper's headline: the discriminative power of a low-support feature
    // is bounded by a small value. At θ = 5% and p = 0.5 the bound is tiny.
    EXPECT_LT(IgUpperBound(0.05, 0.5), 0.30);
    EXPECT_LT(IgUpperBound(0.01, 0.5), 0.09);
    // And symmetric: very high support is weak too.
    EXPECT_LT(IgUpperBound(0.99, 0.5), 0.09);
}

TEST(IgBoundTest, SymmetricInPriorComplement) {
    for (double theta : {0.1, 0.3, 0.6}) {
        EXPECT_NEAR(IgUpperBound(theta, 0.3), IgUpperBound(theta, 0.7), 1e-12);
    }
}

TEST(FisherBoundTest, MatchesEquation6BelowP) {
    // Eq. 6: Fr_ub|q=1 = θ(1−p)/(p−θ) for θ ≤ p.
    const double p = 0.4;
    for (double theta : {0.05, 0.1, 0.2, 0.3}) {
        EXPECT_NEAR(FisherUpperBound(theta, p), theta * (1.0 - p) / (p - theta),
                    1e-9)
            << "theta=" << theta;
    }
}

TEST(FisherBoundTest, MonotoneIncreasingBelowP) {
    const double p = 0.35;
    double prev = 0.0;
    for (double theta = 0.01; theta < p - 0.02; theta += 0.01) {
        const double bound = FisherUpperBound(theta, p);
        EXPECT_GE(bound, prev) << "theta=" << theta;
        prev = bound;
    }
}

TEST(FisherBoundTest, DivergesAtThetaEqualsP) {
    EXPECT_TRUE(std::isinf(FisherUpperBound(0.4, 0.4)));
    EXPECT_GT(FisherUpperBound(0.399, 0.4), 100.0);
}

TEST(FisherBoundTest, ZeroAtDegenerateInputs) {
    EXPECT_DOUBLE_EQ(FisherUpperBound(0.0, 0.4), 0.0);
    EXPECT_DOUBLE_EQ(FisherUpperBound(1.0, 0.4), 0.0);
    EXPECT_DOUBLE_EQ(FisherUpperBound(0.3, 0.0), 0.0);
}

TEST(MulticlassBoundTest, ReducesToBinary) {
    for (double theta : {0.1, 0.25, 0.4}) {
        EXPECT_NEAR(IgUpperBoundMulticlass(theta, {0.3, 0.7}),
                    IgUpperBound(theta, 0.3), 1e-12);
    }
}

TEST(MulticlassBoundTest, BoundedByClassEntropy) {
    const std::vector<double> priors = {0.5, 0.3, 0.2};
    const double h = Entropy(priors);
    for (double theta = 0.05; theta < 1.0; theta += 0.05) {
        const double bound = IgUpperBoundMulticlass(theta, priors);
        EXPECT_GE(bound, 0.0);
        EXPECT_LE(bound, h + 1e-9);
    }
}

TEST(MulticlassBoundTest, SmallSupportSmallBound) {
    const std::vector<double> priors = {0.4, 0.3, 0.3};
    EXPECT_LT(IgUpperBoundMulticlass(0.02, priors), 0.2);
    EXPECT_GT(IgUpperBoundMulticlass(0.3, priors), 0.5);
}

}  // namespace
}  // namespace dfp
