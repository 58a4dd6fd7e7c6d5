#include "core/minsup_strategy.hpp"

#include <gtest/gtest.h>

#include "common/math_util.hpp"
#include "core/bounds.hpp"

namespace dfp {
namespace {

TEST(MinSupStrategyTest, BoundAtThetaStarRespectsThreshold) {
    const std::vector<double> priors = {0.4, 0.6};
    for (double ig0 : {0.02, 0.05, 0.1, 0.3}) {
        const auto rec = RecommendMinSup(ig0, priors, 1000);
        EXPECT_LE(rec.bound_at_theta_star, ig0 + 1e-9) << "ig0=" << ig0;
        EXPECT_GE(rec.theta_star, 0.0);
        EXPECT_LE(rec.theta_star, 0.4);
    }
}

TEST(MinSupStrategyTest, ThetaStarIsMaximal) {
    // Slightly above θ* the bound must exceed IG0 (θ* is the arg max).
    const std::vector<double> priors = {0.4, 0.6};
    const double ig0 = 0.1;
    const auto rec = RecommendMinSup(ig0, priors, 1000);
    ASSERT_GT(rec.theta_star, 0.0);
    ASSERT_LT(rec.theta_star, 0.4 - 1e-3);
    EXPECT_GT(IgUpperBound(rec.theta_star + 1e-3, 0.4), ig0);
}

TEST(MinSupStrategyTest, LargerThresholdLargerTheta) {
    const std::vector<double> priors = {0.3, 0.7};
    const auto lo = RecommendMinSup(0.02, priors, 500);
    const auto hi = RecommendMinSup(0.2, priors, 500);
    EXPECT_LT(lo.theta_star, hi.theta_star);
    EXPECT_LE(lo.min_sup_abs, hi.min_sup_abs);
}

TEST(MinSupStrategyTest, HugeThresholdSaturatesAtPrior) {
    // If IG0 >= H(C) every support is filterable; θ* caps at min(p, 1−p).
    const std::vector<double> priors = {0.3, 0.7};
    const auto rec = RecommendMinSup(2.0, priors, 100);
    EXPECT_NEAR(rec.theta_star, 0.3, 1e-6);
}

TEST(MinSupStrategyTest, ZeroThresholdMeansMineEverything) {
    const std::vector<double> priors = {0.5, 0.5};
    const auto rec = RecommendMinSup(0.0, priors, 100);
    EXPECT_NEAR(rec.theta_star, 0.0, 1e-6);
    EXPECT_EQ(rec.min_sup_abs, 1u);  // clamped
}

TEST(MinSupStrategyTest, AbsoluteThresholdIsCeiled) {
    const std::vector<double> priors = {0.4, 0.6};
    const auto rec = RecommendMinSup(0.1, priors, 730);
    EXPECT_EQ(rec.min_sup_abs,
              static_cast<std::size_t>(std::ceil(rec.theta_star * 730)));
}

TEST(MinSupStrategyTest, MulticlassUsesSmallestPrior) {
    // The binding constraint comes from the rarest class.
    const std::vector<double> priors = {0.1, 0.3, 0.6};
    const auto rec = RecommendMinSup(10.0, priors, 1000);
    EXPECT_NEAR(rec.theta_star, 0.1, 1e-6);
}

TEST(MinSupStrategyFisherTest, BoundRespectedAndMonotone) {
    const std::vector<double> priors = {0.4, 0.6};
    for (double f0 : {0.05, 0.2, 1.0}) {
        const auto rec = RecommendMinSupFisher(f0, priors, 1000);
        EXPECT_LE(rec.bound_at_theta_star, f0 + 1e-6);
        EXPECT_LE(FisherUpperBound(rec.theta_star, 0.4), f0 + 1e-6);
    }
    const auto lo = RecommendMinSupFisher(0.05, priors, 1000);
    const auto hi = RecommendMinSupFisher(1.0, priors, 1000);
    EXPECT_LT(lo.theta_star, hi.theta_star);
}

TEST(MinSupStrategyTest, SafetyGuarantee) {
    // The paper's guarantee: every pattern with support ≤ θ* has IG ≤ IG0, so
    // mining at min_sup = θ* loses nothing w.r.t. an IG0 feature filter.
    const std::vector<double> priors = {0.45, 0.55};
    const double ig0 = 0.15;
    const auto rec = RecommendMinSup(ig0, priors, 1000);
    for (double theta = 0.001; theta <= rec.theta_star; theta += 0.001) {
        EXPECT_LE(IgUpperBound(theta, 0.45), ig0 + 1e-9) << "theta=" << theta;
    }
}

}  // namespace
}  // namespace dfp
