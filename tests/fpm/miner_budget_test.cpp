// Fault-injected budget breaches across every miner: cancellation, pattern
// caps and deadlines must yield clean partial results (each emitted pattern
// support-correct), never crashes or corrupted state.
#include <gtest/gtest.h>

#include "data/graph.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "fpm/pathminer.hpp"
#include "fpm/prefixspan.hpp"
#include "testutil/apriori.hpp"

namespace dfp {
namespace {

// Deterministic pseudo-random membership: dense enough that min_sup = 1
// enumeration is combinatorially explosive for every miner.
TransactionDatabase Explosive(std::size_t num_txns = 30,
                              std::size_t num_items = 20) {
    std::vector<std::vector<ItemId>> txns(num_txns);
    std::vector<ClassLabel> labels(num_txns);
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (std::size_t t = 0; t < num_txns; ++t) {
        for (ItemId i = 0; i < num_items; ++i) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            if ((state >> 33) & 1) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % num_items));
        labels[t] = static_cast<ClassLabel>(t % 2);
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), num_items, 2);
}

void ExpectSupportsExact(const TransactionDatabase& db,
                         const std::vector<Pattern>& patterns) {
    for (const Pattern& p : patterns) {
        EXPECT_EQ(p.support, db.SupportOf(p.items));
    }
}

class MinerBudgetTest : public ::testing::TestWithParam<const char*> {
  protected:
    std::unique_ptr<Miner> MakeNamed() const {
        const std::string name = GetParam();
        if (name == "apriori") return std::make_unique<testutil::AprioriMiner>();
        if (name == "eclat") return std::make_unique<EclatMiner>();
        if (name == "closed") return std::make_unique<ClosedMiner>();
        return nullptr;
    }
};

TEST_P(MinerBudgetTest, FaultInjectedCancellationYieldsPartialResult) {
    const auto db = Explosive();
    CancelToken token;
    token.CancelAfterChecks(100);
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.cancel = &token;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kCancelled);
    ExpectSupportsExact(db, outcome->patterns);
}

TEST_P(MinerBudgetTest, StrictMineReportsCancelledStatus) {
    const auto db = Explosive();
    CancelToken token;
    token.CancelAfterChecks(100);
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.cancel = &token;
    const auto result = MakeNamed()->Mine(db, config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_P(MinerBudgetTest, PatternCapTruncatesWithExactSupports) {
    const auto db = Explosive();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.max_patterns = 50;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kPatternCap);
    EXPECT_LE(outcome->patterns.size(), 50u);
    ExpectSupportsExact(db, outcome->patterns);
}

TEST_P(MinerBudgetTest, ExpiredDeadlineStopsEnumeration) {
    const auto db = Explosive();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.time_budget_ms = 0.0;
    // Also cap patterns so a pathological clock can't let the test run away.
    config.budget.max_patterns = 200'000;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->truncated());
    EXPECT_EQ(outcome->breach, BudgetBreach::kDeadline);
    ExpectSupportsExact(db, outcome->patterns);
}

TEST_P(MinerBudgetTest, MemoryCapStopsEnumeration) {
    const auto db = Explosive();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.max_memory_bytes = 4096;
    config.budget.max_patterns = 200'000;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->truncated());
    ExpectSupportsExact(db, outcome->patterns);
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerBudgetTest,
                         ::testing::Values("apriori", "eclat", "closed"));

// The closed miner stops its DFS at max_pattern_len, so its budgets count
// only patterns within the bound, and it checks the pattern cap when it has
// a pattern to emit: a cap equal to the bounded output size, or a memory cap
// equal to that output's estimate, truncates nothing.
class ClosedBoundBudgetTest : public ::testing::Test {
  protected:
    void SetUp() override {
        config_.min_sup_abs = 3;
        auto all = ClosedMiner().Mine(db_, config_);
        ASSERT_TRUE(all.ok()) << all.status();
        config_.max_pattern_len = 3;
        auto bounded = ClosedMiner().Mine(db_, config_);
        ASSERT_TRUE(bounded.ok()) << bounded.status();
        bounded_ = std::move(*bounded);
        // Most closed patterns are longer than the bound.
        ASSERT_LT(2 * bounded_.size(), all->size());
    }

    void ExpectWholeBoundedOutput(const MinerConfig& config) const {
        const auto outcome = ClosedMiner().MineBudgeted(db_, config);
        ASSERT_TRUE(outcome.ok()) << outcome.status();
        EXPECT_EQ(outcome->breach, BudgetBreach::kNone);
        ASSERT_EQ(outcome->patterns.size(), bounded_.size());
        for (std::size_t k = 0; k < bounded_.size(); ++k) {
            EXPECT_EQ(outcome->patterns[k].items, bounded_[k].items);
        }
    }

    const TransactionDatabase db_ = Explosive();
    MinerConfig config_;
    std::vector<Pattern> bounded_;
};

TEST_F(ClosedBoundBudgetTest, PatternCapEqualToBoundedOutputDoesNotTruncate) {
    MinerConfig config = config_;
    config.budget.max_patterns = bounded_.size();
    ExpectWholeBoundedOutput(config);
    // One fewer is a real truncation, at exactly the cap.
    config.budget.max_patterns = bounded_.size() - 1;
    const auto outcome = ClosedMiner().MineBudgeted(db_, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kPatternCap);
    EXPECT_EQ(outcome->patterns.size(), bounded_.size() - 1);
}

TEST_F(ClosedBoundBudgetTest, MemoryCapEqualToBoundedEstimateDoesNotTruncate) {
    MinerConfig config = config_;
    std::size_t bytes = 0;
    for (const Pattern& p : bounded_) {
        bytes += sizeof(Pattern) + p.items.capacity() * sizeof(ItemId);
    }
    config.budget.max_memory_bytes = bytes;
    ExpectWholeBoundedOutput(config);
}

TEST(PrefixSpanBudgetTest, CancellationYieldsPartialResult) {
    SequenceDatabase db({{0, 1, 2, 0, 1}, {0, 2, 1, 2}, {1, 0, 2, 1}, {2, 1, 0}},
                        {0, 0, 1, 1}, 3, 2);
    CancelToken token;
    token.CancelAfterChecks(2);
    PrefixSpanConfig config;
    config.min_sup_abs = 1;
    config.budget.cancel = &token;
    const auto outcome = MineSequencesBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kCancelled);

    token.Reset();
    token.CancelAfterChecks(2);
    const auto strict = MineSequences(db, config);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kCancelled);
}

TEST(PathMinerBudgetTest, CancellationYieldsPartialResult) {
    GraphSpec spec;
    spec.rows = 20;
    spec.seed = 3;
    const GraphDatabase db = GenerateGraphs(spec);
    CancelToken token;
    token.CancelAfterChecks(2);
    PathMinerConfig config;
    config.min_sup_abs = 1;
    config.budget.cancel = &token;
    const auto outcome = MinePathsBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kCancelled);

    token.Reset();
    token.CancelAfterChecks(2);
    const auto strict = MinePaths(db, config);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace dfp
