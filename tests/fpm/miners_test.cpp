#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "testutil/apriori.hpp"
#include "testutil/brute_force_closed.hpp"

namespace dfp {
namespace {

// T0{0,1,2} T1{0,1} T2{0,2} T3{1,2} T4{0,1,2,3}; labels unused by miners.
TransactionDatabase Toy() {
    return TransactionDatabase::FromTransactions(
        {{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2, 3}}, {0, 0, 0, 1, 1}, 4, 2);
}

// Expected frequent itemsets at min_sup=2 with their supports.
std::map<Itemset, std::size_t> ExpectedFrequentAt2() {
    return {
        {{0}, 4}, {{1}, 4}, {{2}, 4}, {{0, 1}, 3},
        {{0, 2}, 3}, {{1, 2}, 3}, {{0, 1, 2}, 2},
    };
}

std::map<Itemset, std::size_t> ToMap(const std::vector<Pattern>& patterns) {
    std::map<Itemset, std::size_t> m;
    for (const auto& p : patterns) m[p.items] = p.support;
    return m;
}

class AllMinersTest : public ::testing::TestWithParam<const char*> {
  protected:
    std::unique_ptr<Miner> MakeNamed() const {
        const std::string name = GetParam();
        if (name == "apriori") return std::make_unique<testutil::AprioriMiner>();
        if (name == "eclat") return std::make_unique<EclatMiner>();
        return nullptr;
    }
};

TEST_P(AllMinersTest, HandCheckedFrequentSets) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 2;
    auto result = MakeNamed()->Mine(db, config);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(ToMap(*result), ExpectedFrequentAt2());
}

TEST_P(AllMinersTest, RelativeMinSup) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_rel = 0.4;  // ceil(0.4*5) = 2
    auto result = MakeNamed()->Mine(db, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ToMap(*result), ExpectedFrequentAt2());
}

TEST_P(AllMinersTest, MaxPatternLength) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 2;
    config.max_pattern_len = 2;
    auto result = MakeNamed()->Mine(db, config);
    ASSERT_TRUE(result.ok());
    for (const auto& p : *result) EXPECT_LE(p.length(), 2u);
    EXPECT_EQ(result->size(), 6u);  // expected set minus {0,1,2}
}

TEST_P(AllMinersTest, ExcludeSingletons) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 2;
    config.include_singletons = false;
    auto result = MakeNamed()->Mine(db, config);
    ASSERT_TRUE(result.ok());
    for (const auto& p : *result) EXPECT_GE(p.length(), 2u);
    EXPECT_EQ(result->size(), 4u);
}

TEST_P(AllMinersTest, BudgetExhaustionReported) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.max_patterns = 3;
    const auto result = MakeNamed()->Mine(db, config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_P(AllMinersTest, HighMinSupYieldsNothing) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 6;
    auto result = MakeNamed()->Mine(db, config);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->empty());
}

INSTANTIATE_TEST_SUITE_P(Miners, AllMinersTest,
                         ::testing::Values("apriori", "eclat"));

TEST(ClosedMinerTest, HandCheckedClosedSets) {
    // T0{0,3} T1{0,1,3} T2{0,2,3} T3{1,2}: 0 and 3 always co-occur, so neither
    // {0} nor {3} is closed; their closure {0,3} is.
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 3}, {0, 1, 3}, {0, 2, 3}, {1, 2}}, {0, 0, 1, 1}, 4, 2);
    MinerConfig config;
    config.min_sup_abs = 2;
    ClosedMiner miner;
    auto result = miner.Mine(db, config);
    ASSERT_TRUE(result.ok()) << result.status();
    const auto got = ToMap(*result);
    const std::map<Itemset, std::size_t> expected = {
        {{0, 3}, 3}, {{1}, 2}, {{2}, 2},
    };
    EXPECT_EQ(got, expected);
}

TEST(ClosedMinerTest, ClosedSubsetOfFrequent) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 2;
    ClosedMiner closed;
    EclatMiner all;
    auto closed_result = closed.Mine(db, config);
    auto all_result = all.Mine(db, config);
    ASSERT_TRUE(closed_result.ok());
    ASSERT_TRUE(all_result.ok());
    const auto all_map = ToMap(*all_result);
    for (const auto& p : *closed_result) {
        const auto it = all_map.find(p.items);
        ASSERT_NE(it, all_map.end());
        EXPECT_EQ(it->second, p.support);
    }
    EXPECT_LE(closed_result->size(), all_result->size());
}

TEST(ClosedMinerTest, FullSupportClosureEmitted) {
    // Item 0 appears in all transactions → closure of the empty set is {0}.
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 1}, {0, 2}, {0}}, {0, 0, 1}, 3, 2);
    MinerConfig config;
    config.min_sup_abs = 1;
    ClosedMiner miner;
    auto result = miner.Mine(db, config);
    ASSERT_TRUE(result.ok());
    const auto got = ToMap(*result);
    ASSERT_TRUE(got.count({0}));
    EXPECT_EQ(got.at({0}), 3u);
}

TEST(ClosedMinerTest, MatchesBruteForceOnToy) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 2;
    ClosedMiner miner;
    auto fast = miner.Mine(db, config);
    auto slow = testutil::BruteForceClosed(db, config);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(ToMap(*fast), ToMap(*slow));
}

TEST(BruteForceClosedTest, HandCheckedClosedSets) {
    // The reference itself, on ClosedMinerTest.HandCheckedClosedSets's
    // database: {0} and {3} always co-occur, so only {0,3} is closed.
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 3}, {0, 1, 3}, {0, 2, 3}, {1, 2}}, {0, 0, 1, 1}, 4, 2);
    MinerConfig config;
    config.min_sup_abs = 2;
    auto result = testutil::BruteForceClosed(db, config);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::map<Itemset, std::size_t> expected = {
        {{0, 3}, 3}, {{1}, 2}, {{2}, 2},
    };
    EXPECT_EQ(ToMap(*result), expected);
    for (const Pattern& p : *result) {
        EXPECT_EQ(p.cover.Count(), p.support) << "metadata attached";
    }
}

TEST(BruteForceClosedTest, KeepsExactlyTheSetsNoExtensionMatches) {
    // The closed-set definition checked directly on Toy at min_sup 1: a
    // frequent itemset is kept iff every one-item extension has a smaller
    // support.
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 1;
    const auto closed = testutil::BruteForceClosed(db, config);
    const auto frequent = testutil::AprioriMiner().Mine(db, config);
    ASSERT_TRUE(closed.ok()) << closed.status();
    ASSERT_TRUE(frequent.ok()) << frequent.status();
    const auto support = ToMap(*frequent);
    const auto kept = ToMap(*closed);
    for (const auto& [items, sup] : support) {
        bool matched = false;
        for (ItemId extra = 0; extra < db.num_items(); ++extra) {
            if (std::binary_search(items.begin(), items.end(), extra)) continue;
            Itemset bigger = items;
            bigger.insert(std::upper_bound(bigger.begin(), bigger.end(), extra),
                          extra);
            const auto it = support.find(bigger);
            if (it != support.end() && it->second == sup) matched = true;
        }
        EXPECT_EQ(kept.count(items), matched ? 0u : 1u) << ItemsetToString(items);
    }
    // T4 is the only row with item 3, so {0,1,2,3} is closed and {3} is not.
    EXPECT_EQ(kept.count({0, 1, 2, 3}), 1u);
    EXPECT_EQ(kept.count({3}), 0u);
}

TEST(MinerConfigTest, ResolveMinSup) {
    MinerConfig config;
    config.min_sup_abs = 5;
    EXPECT_EQ(ResolveMinSup(config, 100), 5u);
    config.min_sup_rel = 0.1;
    EXPECT_EQ(ResolveMinSup(config, 100), 10u);
    config.min_sup_rel = 0.101;
    EXPECT_EQ(ResolveMinSup(config, 100), 11u);  // ceil
    config.min_sup_rel = 0.0;
    EXPECT_EQ(ResolveMinSup(config, 100), 1u);  // clamped to >= 1
}

TEST(PatternTest, MajorityClassAndConfidence) {
    Pattern p;
    p.support = 10;
    p.class_counts = {3, 7};
    EXPECT_EQ(p.MajorityClass(), 1u);
    EXPECT_DOUBLE_EQ(p.Confidence(), 0.7);
}

TEST(PatternTest, AttachMetadata) {
    const auto db = Toy();
    std::vector<Pattern> patterns(1);
    patterns[0].items = {0, 1};
    AttachMetadata(db, &patterns);
    EXPECT_EQ(patterns[0].support, 3u);
    EXPECT_EQ(patterns[0].cover.ToIndices(),
              (std::vector<std::uint32_t>{0, 1, 4}));
    EXPECT_EQ(patterns[0].class_counts, (std::vector<std::size_t>{2, 1}));
}

TEST(PatternTest, PatternLessOrdersByLengthThenItems) {
    auto pattern = [](Itemset items, std::size_t support) {
        Pattern p;
        p.items = std::move(items);
        p.support = support;
        return p;
    };
    std::vector<Pattern> patterns = {
        pattern({0, 1, 2}, 1), pattern({2}, 9), pattern({0, 3}, 2),
        pattern({1}, 1),       pattern({0, 1}, 5),
    };
    SortPatterns(patterns);
    std::vector<Itemset> order;
    for (const auto& p : patterns) order.push_back(p.items);
    const std::vector<Itemset> expected = {{1}, {2}, {0, 1}, {0, 3}, {0, 1, 2}};
    EXPECT_EQ(order, expected);
    // Support plays no part: equal itemsets are equivalent either way.
    EXPECT_FALSE(PatternLess(pattern({0, 1}, 5), pattern({0, 1}, 1)));
    EXPECT_FALSE(PatternLess(pattern({0, 1}, 1), pattern({0, 1}, 5)));
    EXPECT_TRUE(PatternLess(pattern({5}, 1), pattern({0, 1}, 1)));
}

TEST(ItemsetTest, SubsetAndToString) {
    EXPECT_TRUE(IsSubsetOf({1, 3}, {0, 1, 2, 3}));
    EXPECT_FALSE(IsSubsetOf({1, 5}, {0, 1, 2, 3}));
    EXPECT_TRUE(IsSubsetOf({}, {0}));
    EXPECT_EQ(ItemsetToString({1, 3}), "{1, 3}");
}

}  // namespace
}  // namespace dfp
