// Property tests: on random databases, Eclat agrees with the reference
// Apriori, every emitted pattern satisfies min_sup with a correct support
// value, and the closed miner matches the brute-force closure filter.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "testutil/apriori.hpp"
#include "testutil/brute_force_closed.hpp"

namespace dfp {
namespace {

TransactionDatabase RandomDb(std::uint64_t seed, std::size_t n, std::size_t items,
                             double density) {
    Rng rng(seed);
    std::vector<std::vector<ItemId>> txns(n);
    std::vector<ClassLabel> labels(n);
    for (std::size_t t = 0; t < n; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(density)) txns[t].push_back(i);
        }
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns), std::move(labels),
                                                 items, 2);
}

std::map<Itemset, std::size_t> ToMap(const std::vector<Pattern>& patterns) {
    std::map<Itemset, std::size_t> m;
    for (const auto& p : patterns) m[p.items] = p.support;
    return m;
}

struct PropertyCase {
    std::uint64_t seed;
    std::size_t n;
    std::size_t items;
    double density;
    double min_sup_rel;
};

class MinerAgreementTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(MinerAgreementTest, AllMinersProduceIdenticalOutput) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;

    auto ap = testutil::AprioriMiner().Mine(db, config);
    auto ec = EclatMiner().Mine(db, config);
    ASSERT_TRUE(ap.ok()) << ap.status();
    ASSERT_TRUE(ec.ok()) << ec.status();
    EXPECT_EQ(ToMap(*ec), ToMap(*ap)) << "eclat vs apriori diverge";
}

TEST_P(MinerAgreementTest, BoundedEclatMatchesApriori) {
    // The stream retrain's window mine: length-bounded, singletons dropped.
    // Eclat prunes its DFS at the bound; Apriori stops at that level.
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    config.max_pattern_len = 3;
    config.include_singletons = false;

    auto ap = testutil::AprioriMiner().Mine(db, config);
    auto ec = EclatMiner().Mine(db, config);
    ASSERT_TRUE(ap.ok()) << ap.status();
    ASSERT_TRUE(ec.ok()) << ec.status();
    for (const auto& p : *ec) {
        EXPECT_GE(p.length(), 2u);
        EXPECT_LE(p.length(), 3u);
    }
    EXPECT_EQ(ToMap(*ec), ToMap(*ap)) << "bounded eclat vs apriori diverge";
}

TEST_P(MinerAgreementTest, SupportsAreCorrectAndAboveThreshold) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    const std::size_t min_sup = ResolveMinSup(config, db.num_transactions());

    auto mined = EclatMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok());
    for (const auto& p : *mined) {
        EXPECT_GE(p.support, min_sup);
        EXPECT_EQ(p.support, db.SupportOf(p.items))
            << "support mismatch for " << ItemsetToString(p.items);
    }
}

TEST_P(MinerAgreementTest, SupportIsAntiMonotone) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    auto mined = EclatMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok());
    const auto by_items = ToMap(*mined);
    for (const auto& [items, support] : by_items) {
        if (items.size() < 2) continue;
        // Every (k-1)-subset is also frequent with support >= this one.
        for (std::size_t drop = 0; drop < items.size(); ++drop) {
            Itemset sub;
            for (std::size_t i = 0; i < items.size(); ++i) {
                if (i != drop) sub.push_back(items[i]);
            }
            const auto it = by_items.find(sub);
            ASSERT_NE(it, by_items.end())
                << "missing subset " << ItemsetToString(sub);
            EXPECT_GE(it->second, support);
        }
    }
}

TEST_P(MinerAgreementTest, ClosedMinerMatchesBruteForce) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    auto fast = ClosedMiner().Mine(db, config);
    auto slow = testutil::BruteForceClosed(db, config);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok()) << slow.status();
    EXPECT_EQ(ToMap(*fast), ToMap(*slow));
}

TEST_P(MinerAgreementTest, ClosedPatternsHaveUniqueCovers) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    auto mined = ClosedMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok());
    std::vector<Pattern> patterns = std::move(*mined);
    AttachMetadata(db, &patterns);
    // Two distinct closed itemsets can never share a cover set.
    std::map<std::vector<std::uint32_t>, Itemset> by_cover;
    for (const auto& p : patterns) {
        const auto [it, inserted] = by_cover.emplace(p.cover.ToIndices(), p.items);
        EXPECT_TRUE(inserted) << "duplicate cover for " << ItemsetToString(p.items)
                              << " and " << ItemsetToString(it->second);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, MinerAgreementTest,
    ::testing::Values(PropertyCase{1, 40, 8, 0.30, 0.10},
                      PropertyCase{2, 60, 10, 0.25, 0.10},
                      PropertyCase{3, 80, 12, 0.20, 0.08},
                      PropertyCase{4, 50, 9, 0.40, 0.15},
                      PropertyCase{5, 100, 10, 0.15, 0.05},
                      PropertyCase{6, 30, 14, 0.35, 0.20},
                      PropertyCase{7, 120, 8, 0.50, 0.25},
                      PropertyCase{8, 70, 11, 0.30, 0.12}));

}  // namespace
}  // namespace dfp
