// The paper's central theorem, checked empirically: the information gain /
// Fisher score of EVERY mined pattern is below the theoretical upper bound at
// the pattern's support (Section 3.1.2, Figures 2-3).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/bounds.hpp"
#include "core/measures.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "fpm/eclat.hpp"

namespace dfp {
namespace {

TransactionDatabase MakeDb(std::uint64_t seed, std::size_t classes) {
    SyntheticSpec spec;
    spec.rows = 250;
    spec.classes = classes;
    spec.attributes = 8;
    spec.arity = 3;
    spec.seed = seed;
    spec.marginal_skew = 0.3;
    const Dataset data = GenerateSynthetic(spec);
    auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

class BoundHoldsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundHoldsTest, InformationGainBelowBoundBinary) {
    const auto db = MakeDb(GetParam(), 2);
    const double p = db.ClassPriors()[0];
    MinerConfig config;
    config.min_sup_rel = 0.05;
    auto mined = EclatMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok());
    std::vector<Pattern> patterns = std::move(*mined);
    AttachMetadata(db, &patterns);
    ASSERT_GT(patterns.size(), 20u);
    for (const Pattern& pat : patterns) {
        const auto stats = StatsOfPattern(db, pat);
        const double ig = InformationGain(stats);
        const double bound = IgUpperBound(stats.theta(), p);
        EXPECT_LE(ig, bound + 1e-9)
            << ItemsetToString(pat.items) << " support=" << pat.support;
    }
}

TEST_P(BoundHoldsTest, FisherScoreBelowBoundBinary) {
    const auto db = MakeDb(GetParam(), 2);
    const double p = db.ClassPriors()[0];
    MinerConfig config;
    config.min_sup_rel = 0.05;
    auto mined = EclatMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok());
    std::vector<Pattern> patterns = std::move(*mined);
    AttachMetadata(db, &patterns);
    for (const Pattern& pat : patterns) {
        const auto stats = StatsOfPattern(db, pat);
        const double fr = FisherScore(stats);
        const double bound = FisherUpperBound(stats.theta(), p);
        if (std::isinf(bound)) continue;
        EXPECT_LE(fr, bound + 1e-6)
            << ItemsetToString(pat.items) << " support=" << pat.support;
    }
}

TEST_P(BoundHoldsTest, OneVsRestBoundHoldsMulticlass) {
    const auto db = MakeDb(GetParam(), 4);
    const auto priors = db.ClassPriors();
    MinerConfig config;
    config.min_sup_rel = 0.08;
    auto mined = EclatMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok());
    std::vector<Pattern> patterns = std::move(*mined);
    AttachMetadata(db, &patterns);
    for (const Pattern& pat : patterns) {
        const auto stats = StatsOfPattern(db, pat);
        // For each class c, the IG of the pattern w.r.t. the indicator of c is
        // bounded by the binary bound with prior p_c (the provable statement).
        for (std::size_t c = 0; c < priors.size(); ++c) {
            const std::size_t totals[2] = {stats.class_totals[c],
                                           stats.n - stats.class_totals[c]};
            const std::size_t support[2] = {stats.class_support[c],
                                            stats.support - stats.class_support[c]};
            FeatureStats ovr;
            ovr.n = stats.n;
            ovr.support = stats.support;
            ovr.class_totals = totals;
            ovr.class_support = support;
            const double ig = InformationGain(ovr);
            EXPECT_LE(ig, IgUpperBound(stats.theta(), priors[c]) + 1e-9)
                << ItemsetToString(pat.items) << " class " << c;
        }
    }
}

TEST_P(BoundHoldsTest, MulticlassHeuristicBoundHoldsEmpirically) {
    const auto db = MakeDb(GetParam(), 3);
    const auto priors = db.ClassPriors();
    MinerConfig config;
    config.min_sup_rel = 0.08;
    auto mined = EclatMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok());
    std::vector<Pattern> patterns = std::move(*mined);
    AttachMetadata(db, &patterns);
    for (const Pattern& pat : patterns) {
        const auto stats = StatsOfPattern(db, pat);
        const double ig = InformationGain(stats);
        EXPECT_LE(ig, IgUpperBoundMulticlass(stats.theta(), priors) + 1e-9)
            << ItemsetToString(pat.items);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundHoldsTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace dfp
