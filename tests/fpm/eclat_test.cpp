// Eclat, the library's one all-frequent miner: hand-checked supports on
// shaped databases (repeated, nested and branching rows), its depth-first
// emission order, the tidset/diffset switch, the length bound's pruning, its
// metrics, and agreement with the reference Apriori across database shapes
// at one and several threads.
#include "fpm/eclat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "testutil/apriori.hpp"

namespace dfp {
namespace {

using Rows = std::vector<std::vector<ItemId>>;

TransactionDatabase Db(Rows rows, std::size_t num_items) {
    std::vector<ClassLabel> labels(rows.size(), 0);
    return TransactionDatabase::FromTransactions(std::move(rows),
                                                 std::move(labels), num_items, 1);
}

TransactionDatabase RandomDb(std::uint64_t seed, std::size_t n,
                             std::size_t items, double density) {
    Rng rng(seed);
    Rows rows(n);
    for (auto& row : rows) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(density)) row.push_back(i);
        }
    }
    return Db(std::move(rows), items);
}

std::map<Itemset, std::size_t> ToMap(const std::vector<Pattern>& patterns) {
    std::map<Itemset, std::size_t> m;
    for (const auto& p : patterns) m[p.items] = p.support;
    return m;
}

std::vector<Itemset> ItemsOf(const std::vector<Pattern>& patterns) {
    std::vector<Itemset> items;
    for (const auto& p : patterns) items.push_back(p.items);
    return items;
}

std::vector<Pattern> MineOk(const TransactionDatabase& db,
                            const MinerConfig& config) {
    auto mined = EclatMiner().Mine(db, config);
    EXPECT_TRUE(mined.ok()) << mined.status();
    return mined.ok() ? std::move(*mined) : std::vector<Pattern>{};
}

MinerConfig AbsMinSup(std::size_t min_sup) {
    MinerConfig config;
    config.min_sup_abs = min_sup;
    return config;
}

std::uint64_t CounterValue(const char* name) {
    return obs::Registry::Get().GetCounter(name).value();
}

TEST(EclatTest, SingletonSupportsEqualItemSupports) {
    const auto db = RandomDb(11, 90, 12, 0.3);
    const auto patterns = MineOk(db, AbsMinSup(25));
    std::map<Itemset, std::size_t> singletons;
    for (const auto& p : patterns) {
        if (p.length() == 1) singletons[p.items] = p.support;
    }
    std::map<Itemset, std::size_t> expected;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        if (db.ItemSupport(i) >= 25) expected[{i}] = db.ItemSupport(i);
    }
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(singletons, expected);
}

TEST(EclatTest, NothingFrequentMinesNothing) {
    const auto db = Db({{0, 1}, {2}, {3}}, 4);
    EXPECT_TRUE(MineOk(db, AbsMinSup(3)).empty());
}

TEST(EclatTest, EmptyDatabaseMinesNothing) {
    const auto db = Db({}, 5);
    EXPECT_TRUE(MineOk(db, AbsMinSup(1)).empty());
}

TEST(EclatTest, UnseenItemsAreNeverEmitted) {
    // min_sup_rel 0 resolves to 1, so only itemsets that occur are frequent:
    // items 3 and 4 have no row and must not appear.
    const auto db = Db({{0, 1}, {1, 2}}, 5);
    MinerConfig config;
    config.min_sup_rel = 0.0;
    const std::map<Itemset, std::size_t> expected = {
        {{0}, 1}, {{1}, 2}, {{2}, 1}, {{0, 1}, 1}, {{1, 2}, 1},
    };
    EXPECT_EQ(ToMap(MineOk(db, config)), expected);
}

TEST(EclatTest, RepeatedRowsCountOncePerRow) {
    // Three copies of {0,1,2} and one {0}: every subset of {0,1,2} has
    // support 3, {0} has 4.
    const auto db = Db({{0, 1, 2}, {0, 1, 2}, {0}, {0, 1, 2}}, 3);
    const std::map<Itemset, std::size_t> expected = {
        {{0}, 4},    {{1}, 3},    {{2}, 3},       {{0, 1}, 3},
        {{0, 2}, 3}, {{1, 2}, 3}, {{0, 1, 2}, 3},
    };
    EXPECT_EQ(ToMap(MineOk(db, AbsMinSup(2))), expected);
}

TEST(EclatTest, NestedRowsGiveChainSupports) {
    // Rows {0}, {0,1}, {0,1,2}, {0,1,2,3}: an itemset's support is the
    // number of rows reaching its largest item, 4 − max(S).
    const auto db = Db({{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}}, 4);
    const auto patterns = MineOk(db, AbsMinSup(1));
    EXPECT_EQ(patterns.size(), 15u);  // every non-empty subset of {0,1,2,3}
    for (const auto& p : patterns) {
        EXPECT_EQ(p.support, 4u - p.items.back()) << ItemsetToString(p.items);
    }
}

TEST(EclatTest, BranchingRowsSplitSupports) {
    // {0,1} and {0,2} share only item 0; {1,2} never co-occurs.
    const auto db = Db({{0, 1}, {0, 2}}, 3);
    const std::map<Itemset, std::size_t> expected = {
        {{0}, 2}, {{1}, 1}, {{2}, 1}, {{0, 1}, 1}, {{0, 2}, 1},
    };
    EXPECT_EQ(ToMap(MineOk(db, AbsMinSup(1))), expected);
}

TEST(EclatTest, PatternsWithAnItemCountOnlyItsRows) {
    // Every pattern containing item 3 is frequent in the rows holding 3:
    // its support equals the support of the rest within those rows.
    const auto db = RandomDb(12, 80, 8, 0.4);
    const auto patterns = MineOk(db, AbsMinSup(4));
    Rows with_three;
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        const auto& row = db.transaction(t);
        if (std::binary_search(row.begin(), row.end(), ItemId{3})) {
            with_three.push_back(row);
        }
    }
    std::size_t checked = 0;
    for (const auto& p : patterns) {
        if (!std::binary_search(p.items.begin(), p.items.end(), ItemId{3})) {
            continue;
        }
        std::size_t count = 0;
        for (const auto& row : with_three) {
            if (IsSubsetOf(p.items, row)) ++count;
        }
        EXPECT_EQ(p.support, count) << ItemsetToString(p.items);
        ++checked;
    }
    EXPECT_GT(checked, 3u);
}

TEST(EclatTest, EmitsDepthFirstInAscendingItemOrder) {
    // T0{0,1,2} T1{0,1} T2{0,2} T3{1,2} T4{0,1,2,3} at min_sup 2: each
    // pattern is followed by its extensions before its next sibling.
    const auto db = Db({{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2, 3}}, 4);
    const std::vector<Itemset> expected = {
        {0}, {0, 1}, {0, 1, 2}, {0, 2}, {1}, {1, 2}, {2},
    };
    EXPECT_EQ(ItemsOf(MineOk(db, AbsMinSup(2))), expected);
}

TEST(EclatTest, FullRowsEmitEveryNonEmptySubset) {
    const Rows rows(6, std::vector<ItemId>{0, 1, 2, 3, 4});
    const auto db = Db(rows, 5);
    const auto patterns = MineOk(db, AbsMinSup(6));
    EXPECT_EQ(patterns.size(), 31u);
    for (const auto& p : patterns) EXPECT_EQ(p.support, 6u);
}

TEST(EclatTest, DenseClassesSwitchToDiffsets) {
    // At density 0.85 a class's diffsets are smaller than its tidsets, so
    // mining switches form; supports stay exact.
    const auto db = RandomDb(13, 120, 9, 0.85);
    MinerConfig config = AbsMinSup(60);
    const std::uint64_t before = CounterValue("dfp.fpm.eclat.diffset_classes");
    const auto patterns = MineOk(db, config);
    EXPECT_GT(CounterValue("dfp.fpm.eclat.diffset_classes"), before);
    const auto reference = testutil::AprioriMiner().Mine(db, config);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(ToMap(patterns), ToMap(*reference));
}

TEST(EclatTest, SparseClassesKeepTidsets) {
    // Every pair of items 0–3 shares exactly two of the twelve two-item rows:
    // an extension keeps 2 of its prefix's 6 rows, so a tidset (2 rows) beats
    // its diffset (4 rows) and no class is mined in diffset form.
    Rows rows;
    for (ItemId a = 0; a < 4; ++a) {
        for (ItemId b = a + 1; b < 4; ++b) {
            rows.push_back({a, b});
            rows.push_back({a, b});
        }
    }
    const auto db = Db(std::move(rows), 4);
    const std::uint64_t before = CounterValue("dfp.fpm.eclat.diffset_classes");
    const auto patterns = MineOk(db, AbsMinSup(2));
    EXPECT_EQ(CounterValue("dfp.fpm.eclat.diffset_classes"), before);
    ASSERT_EQ(patterns.size(), 10u);  // 4 singletons and 6 pairs
    for (const auto& p : patterns) {
        EXPECT_EQ(p.support, p.length() == 1 ? 6u : 2u)
            << ItemsetToString(p.items);
    }
}

TEST(EclatTest, MetricsCountEmittedPatterns) {
    const auto db = RandomDb(15, 60, 8, 0.4);
    const std::uint64_t emitted = CounterValue("dfp.fpm.eclat.patterns_emitted");
    const std::uint64_t nodes = CounterValue("dfp.fpm.eclat.nodes_expanded");
    const std::uint64_t aborts = CounterValue("dfp.fpm.eclat.budget_aborts");
    const auto patterns = MineOk(db, AbsMinSup(5));
    EXPECT_EQ(CounterValue("dfp.fpm.eclat.patterns_emitted") - emitted,
              patterns.size());
    EXPECT_GT(CounterValue("dfp.fpm.eclat.nodes_expanded"), nodes);
    EXPECT_EQ(CounterValue("dfp.fpm.eclat.budget_aborts"), aborts);
}

TEST(EclatTest, TruncatedMineCountsOneBudgetAbort) {
    const auto db = RandomDb(16, 60, 8, 0.4);
    MinerConfig config = AbsMinSup(2);
    config.max_patterns = 5;
    const std::uint64_t aborts = CounterValue("dfp.fpm.eclat.budget_aborts");
    const auto outcome = EclatMiner().MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->truncated());
    EXPECT_EQ(outcome->patterns.size(), 5u);
    EXPECT_EQ(CounterValue("dfp.fpm.eclat.budget_aborts") - aborts, 1u);
}

TEST(EclatTest, LengthOneBoundIntersectsNothing) {
    const auto db = RandomDb(17, 70, 10, 0.4);
    MinerConfig config = AbsMinSup(10);
    config.max_pattern_len = 1;
    const std::uint64_t nodes = CounterValue("dfp.fpm.eclat.nodes_expanded");
    const auto patterns = MineOk(db, config);
    EXPECT_EQ(CounterValue("dfp.fpm.eclat.nodes_expanded"), nodes);
    std::vector<Itemset> expected;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        if (db.ItemSupport(i) >= 10) expected.push_back({i});
    }
    EXPECT_EQ(ItemsOf(patterns), expected);
}

TEST(EclatTest, LengthBoundPrunesIntersections) {
    // The bound stops the search rather than filtering after it: fewer
    // intersections, and the output is the unbounded emission with the
    // longer patterns removed, in the same order.
    const auto db = RandomDb(18, 80, 10, 0.5);
    MinerConfig config = AbsMinSup(6);
    std::uint64_t mark = CounterValue("dfp.fpm.eclat.nodes_expanded");
    const auto unbounded = MineOk(db, config);
    const std::uint64_t unbounded_nodes =
        CounterValue("dfp.fpm.eclat.nodes_expanded") - mark;
    config.max_pattern_len = 2;
    mark = CounterValue("dfp.fpm.eclat.nodes_expanded");
    const auto bounded = MineOk(db, config);
    const std::uint64_t bounded_nodes =
        CounterValue("dfp.fpm.eclat.nodes_expanded") - mark;
    EXPECT_LT(bounded_nodes, unbounded_nodes);

    std::vector<Itemset> expected;
    for (const auto& p : unbounded) {
        if (p.length() <= 2) expected.push_back(p.items);
    }
    ASSERT_LT(expected.size(), unbounded.size());
    EXPECT_EQ(ItemsOf(bounded), expected);
}

TEST(EclatTest, ExcludingSingletonsKeepsEmissionOrder) {
    const auto db = RandomDb(19, 60, 9, 0.4);
    MinerConfig config = AbsMinSup(5);
    const auto all = MineOk(db, config);
    config.include_singletons = false;
    const auto pairs_up = MineOk(db, config);
    std::vector<Itemset> expected;
    for (const auto& p : all) {
        if (p.length() >= 2) expected.push_back(p.items);
    }
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(ItemsOf(pairs_up), expected);
}

TEST(EclatTest, HardwareThreadCountMatchesSerialEmission) {
    // num_threads 0 resolves to the host's threads; the split threshold of 1
    // hands every class to the pool. Emission order is still the serial one.
    const auto db = RandomDb(20, 100, 10, 0.4);
    MinerConfig config = AbsMinSup(5);
    const auto serial = MineOk(db, config);
    config.num_threads = 0;
    config.split_work_threshold = 1;
    const auto parallel = MineOk(db, config);
    EXPECT_EQ(ItemsOf(parallel), ItemsOf(serial));
    EXPECT_EQ(ToMap(parallel), ToMap(serial));
}

TEST(EclatTest, MinSupOfEveryRowKeepsOnlyUniversalItemsets) {
    // Items 0 and 2 are in every row, item 1 in most: at min_sup = rows only
    // {0}, {2} and {0,2} survive.
    const auto db = Db({{0, 1, 2}, {0, 2}, {0, 1, 2}, {0, 1, 2, 3}}, 4);
    MinerConfig config;
    config.min_sup_rel = 1.0;
    const std::map<Itemset, std::size_t> expected = {
        {{0}, 4}, {{2}, 4}, {{0, 2}, 4},
    };
    EXPECT_EQ(ToMap(MineOk(db, config)), expected);
}

TEST(EclatTest, SupportsEqualCoverCounts) {
    const auto db = RandomDb(21, 150, 10, 0.35);
    auto patterns = MineOk(db, AbsMinSup(8));
    ASSERT_GT(patterns.size(), db.num_items());
    std::vector<std::size_t> mined;
    for (const auto& p : patterns) mined.push_back(p.support);
    AttachMetadata(db, &patterns);
    for (std::size_t k = 0; k < patterns.size(); ++k) {
        EXPECT_EQ(mined[k], patterns[k].cover.Count())
            << ItemsetToString(patterns[k].items);
    }
}

// Eclat against the reference Apriori on databases of different shape, at
// one thread and at three threads with every class split off to the pool.
struct ShapeCase {
    const char* name;
    std::uint64_t seed;
    std::size_t rows;
    std::size_t items;
    double density;
    std::size_t min_sup;
    bool duplicate_rows;  // each row appears twice
};

class EclatShapeTest
    : public ::testing::TestWithParam<std::tuple<ShapeCase, std::size_t>> {};

TEST_P(EclatShapeTest, MatchesAprioriSet) {
    const auto& [shape, threads] = GetParam();
    TransactionDatabase db = RandomDb(shape.seed, shape.rows, shape.items,
                                      shape.density);
    if (shape.duplicate_rows) {
        Rows doubled;
        for (std::size_t t = 0; t < db.num_transactions(); ++t) {
            doubled.push_back(db.transaction(t));
            doubled.push_back(db.transaction(t));
        }
        db = Db(std::move(doubled), shape.items);
    }
    MinerConfig config = AbsMinSup(shape.min_sup);
    const auto reference = testutil::AprioriMiner().Mine(db, config);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_FALSE(reference->empty());
    config.num_threads = threads;
    config.split_work_threshold = 1;
    const auto patterns = MineOk(db, config);
    EXPECT_EQ(patterns.size(), reference->size());
    EXPECT_EQ(ToMap(patterns), ToMap(*reference));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EclatShapeTest,
    ::testing::Combine(
        ::testing::Values(ShapeCase{"sparse", 31, 150, 14, 0.12, 3, false},
                          ShapeCase{"dense", 32, 80, 9, 0.8, 40, false},
                          ShapeCase{"tall", 33, 300, 8, 0.35, 20, false},
                          ShapeCase{"wide", 34, 40, 24, 0.2, 4, false},
                          ShapeCase{"duplicated", 35, 50, 10, 0.4, 8, true}),
        ::testing::Values(std::size_t{1}, std::size_t{3})),
    [](const auto& info) {
        return std::string(std::get<0>(info.param).name) + "_t" +
               std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dfp
