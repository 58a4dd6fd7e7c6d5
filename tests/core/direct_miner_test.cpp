#include "core/direct_miner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "fpm/eclat.hpp"

namespace dfp {
namespace {

TransactionDatabase BinaryDb(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.rows = 200;
    spec.classes = 2;
    spec.attributes = 7;
    spec.arity = 3;
    spec.seed = seed;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

// Exhaustive reference: IG of every frequent pattern via Eclat.
std::vector<double> AllIgsSorted(const TransactionDatabase& db,
                                 const MinerConfig& mc) {
    auto mined = EclatMiner().Mine(db, mc);
    EXPECT_TRUE(mined.ok());
    std::vector<Pattern> patterns = std::move(*mined);
    AttachMetadata(db, &patterns);
    std::vector<double> igs;
    for (const Pattern& p : patterns) {
        igs.push_back(InformationGain(StatsOfPattern(db, p)));
    }
    std::sort(igs.rbegin(), igs.rend());
    return igs;
}

TEST(DirectMinerTest, MatchesExhaustiveTopKOnBinaryData) {
    const auto db = BinaryDb(21);
    DirectMinerConfig config;
    config.top_k = 10;
    config.miner.min_sup_rel = 0.08;
    config.miner.max_pattern_len = 4;
    auto top = MineTopKDiscriminative(db, config);
    ASSERT_TRUE(top.ok()) << top.status();
    ASSERT_EQ(top->size(), 10u);

    const auto reference = AllIgsSorted(db, config.miner);
    ASSERT_GE(reference.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        const double ig = InformationGain(StatsOfPattern(db, (*top)[i]));
        EXPECT_NEAR(ig, reference[i], 1e-9) << "rank " << i;
    }
}

TEST(DirectMinerTest, ResultsSortedByIgDescending) {
    const auto db = BinaryDb(22);
    DirectMinerConfig config;
    config.top_k = 15;
    config.miner.min_sup_rel = 0.1;
    auto top = MineTopKDiscriminative(db, config);
    ASSERT_TRUE(top.ok());
    double prev = 1e9;
    for (const Pattern& p : *top) {
        const double ig = InformationGain(StatsOfPattern(db, p));
        EXPECT_LE(ig, prev + 1e-12);
        prev = ig;
    }
}

TEST(DirectMinerTest, RespectsMinSup) {
    const auto db = BinaryDb(23);
    DirectMinerConfig config;
    config.top_k = 50;
    config.miner.min_sup_rel = 0.2;
    auto top = MineTopKDiscriminative(db, config);
    ASSERT_TRUE(top.ok());
    const std::size_t min_sup = ResolveMinSup(config.miner, db.num_transactions());
    for (const Pattern& p : *top) EXPECT_GE(p.support, min_sup);
}

TEST(DirectMinerTest, PruningActuallyHappens) {
    const auto db = BinaryDb(24);
    DirectMinerConfig config;
    config.top_k = 5;
    config.miner.min_sup_rel = 0.05;
    config.miner.max_pattern_len = 5;
    DirectMinerStats stats;
    auto top = MineTopKDiscriminative(db, config, &stats);
    ASSERT_TRUE(top.ok());
    EXPECT_GT(stats.nodes_explored, 0u);
    EXPECT_GT(stats.nodes_pruned_bound, 0u);
}

TEST(DirectMinerTest, NodeBudgetSurfaces) {
    const auto db = BinaryDb(25);
    DirectMinerConfig config;
    config.top_k = 5;
    config.miner.min_sup_rel = 0.02;
    config.max_nodes = 10;
    const auto top = MineTopKDiscriminative(db, config);
    ASSERT_FALSE(top.ok());
    EXPECT_EQ(top.status().code(), StatusCode::kResourceExhausted);
}

TEST(DirectMinerTest, ExcludeSingletons) {
    const auto db = BinaryDb(26);
    DirectMinerConfig config;
    config.top_k = 10;
    config.miner.min_sup_rel = 0.1;
    config.miner.include_singletons = false;
    auto top = MineTopKDiscriminative(db, config);
    ASSERT_TRUE(top.ok());
    for (const Pattern& p : *top) EXPECT_GE(p.length(), 2u);
}

TEST(SubCoverBoundTest, DominatesEverySubPattern) {
    const auto db = BinaryDb(27);
    MinerConfig mc;
    mc.min_sup_rel = 0.1;
    auto mined = EclatMiner().Mine(db, mc);
    ASSERT_TRUE(mined.ok());
    std::vector<Pattern> patterns = std::move(*mined);
    AttachMetadata(db, &patterns);
    // For every pattern pair (α, β) with β ⊇ α: IG(β) ≤ bound(cover(α)).
    for (const Pattern& alpha : patterns) {
        const double bound = SubCoverIgBound(db, alpha.cover, 1);
        for (const Pattern& beta : patterns) {
            if (!IsSubsetOf(alpha.items, beta.items)) continue;
            const double ig = InformationGain(StatsOfPattern(db, beta));
            EXPECT_LE(ig, bound + 1e-9)
                << ItemsetToString(alpha.items) << " -> "
                << ItemsetToString(beta.items);
        }
    }
}

TEST(SubCoverBoundTest, FullCoverBoundIsClassEntropyCap) {
    const auto db = BinaryDb(28);
    BitVector all(db.num_transactions());
    all.Fill();
    const double bound = SubCoverIgBound(db, all, 1);
    FeatureStats stats;
    stats.n = db.num_transactions();
    stats.class_totals = db.ClassCounts();
    stats.class_support = stats.class_totals;
    stats.support = stats.n;
    EXPECT_LE(bound, ClassEntropy(stats) + 1e-9);
    EXPECT_GT(bound, 0.0);
}

}  // namespace
}  // namespace dfp
