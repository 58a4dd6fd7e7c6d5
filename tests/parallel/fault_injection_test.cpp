// Fault injection into the *parallel* mining paths: cancellation, pattern
// caps and deadlines firing mid-fan-out must still yield well-formed partial
// results — every emitted pattern support-exact, no duplicates, breach
// reported — with the queue drained cleanly (no leaks under ASan, no races
// under TSan).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "core/mmrfs.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"

namespace dfp {
namespace {

// Dense pseudo-random membership: min_sup = 1 enumeration is combinatorially
// explosive, so every budget fires mid-mine (same shape as miner_budget_test).
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

void ExpectWellFormedPartial(const TransactionDatabase& db,
                             const std::vector<Pattern>& patterns) {
    std::set<Itemset> seen;
    for (const Pattern& p : patterns) {
        EXPECT_EQ(p.support, db.SupportOf(p.items)) << "support not exact";
        EXPECT_TRUE(seen.insert(p.items).second) << "duplicate pattern emitted";
    }
}

using FaultCase = std::tuple<const char*, std::size_t>;  // miner × threads

class ParallelMinerFaultTest : public ::testing::TestWithParam<FaultCase> {
  protected:
    std::unique_ptr<Miner> MakeNamed() const {
        const std::string name = std::get<0>(GetParam());
        if (name == "eclat") return std::make_unique<EclatMiner>();
        if (name == "closed") return std::make_unique<ClosedMiner>();
        return nullptr;
    }
    std::size_t Threads() const { return std::get<1>(GetParam()); }
};

TEST_P(ParallelMinerFaultTest, CancellationMidFanOutYieldsCleanPartial) {
    const auto db = Explosive();
    CancelToken token;
    token.CancelAfterChecks(100);
    MinerConfig config;
    config.min_sup_abs = 1;
    config.num_threads = Threads();
    config.budget.cancel = &token;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kCancelled);
    ExpectWellFormedPartial(db, outcome->patterns);
}

TEST_P(ParallelMinerFaultTest, PatternCapTruncatesAcrossWorkers) {
    const auto db = Explosive();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.num_threads = Threads();
    config.budget.max_patterns = 50;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kPatternCap);
    // The cap is enforced against the shared tally; concurrent emissions may
    // overshoot by at most one pattern per worker before the breach lands.
    EXPECT_LE(outcome->patterns.size(), 50u + Threads());
    ExpectWellFormedPartial(db, outcome->patterns);
}

TEST_P(ParallelMinerFaultTest, ExpiredDeadlineDrainsTheQueue) {
    const auto db = Explosive();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.num_threads = Threads();
    config.budget.time_budget_ms = 0.0;
    config.budget.max_patterns = 200'000;  // backstop for pathological clocks
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->truncated());
    ExpectWellFormedPartial(db, outcome->patterns);
}

TEST_P(ParallelMinerFaultTest, MemoryCapStopsEveryWorker) {
    const auto db = Explosive();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.num_threads = Threads();
    config.budget.max_memory_bytes = 4096;
    config.budget.max_patterns = 200'000;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->truncated());
    ExpectWellFormedPartial(db, outcome->patterns);
}

TEST_P(ParallelMinerFaultTest, StrictMineStillFailsClosedOnCancellation) {
    const auto db = Explosive();
    CancelToken token;
    token.CancelAfterChecks(100);
    MinerConfig config;
    config.min_sup_abs = 1;
    config.num_threads = Threads();
    config.budget.cancel = &token;
    const auto result = MakeNamed()->Mine(db, config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

INSTANTIATE_TEST_SUITE_P(
    MinersByThreads, ParallelMinerFaultTest,
    ::testing::Combine(::testing::Values("eclat", "closed"),
                       ::testing::Values(std::size_t{2}, std::size_t{8})));

TEST(ParallelMmrfsFaultTest, CancellationKeepsValidPrefixOfSelections) {
    const auto db = Explosive(40, 12);
    MinerConfig mine_config;
    mine_config.min_sup_rel = 0.15;
    auto mined = ClosedMiner().Mine(db, mine_config);
    ASSERT_TRUE(mined.ok());
    std::vector<Pattern> candidates = std::move(*mined);
    AttachMetadata(db, &candidates);

    CancelToken token;
    token.CancelAfterChecks(40);
    MmrfsConfig config;
    config.coverage_delta = 4;
    config.budget.cancel = &token;
    const MmrfsResult result = RunMmrfs(db, candidates, config);
    EXPECT_EQ(result.breach, BudgetBreach::kCancelled);
    // Whatever was selected before the breach is individually valid.
    std::set<std::size_t> unique(result.selected.begin(), result.selected.end());
    EXPECT_EQ(unique.size(), result.selected.size()) << "duplicate selection";
    for (std::size_t idx : result.selected) EXPECT_LT(idx, candidates.size());
    EXPECT_EQ(result.gains.size(), result.selected.size());
}

}  // namespace
}  // namespace dfp
