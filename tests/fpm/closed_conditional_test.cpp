// Certificates for ClosedMiner's conditional item lists (DESIGN.md §17): a
// node counts only the items its parent kept and closes over that list, so
// its output must equal the full-scan LCM DFS (tests/testutil) — the same
// closed sets, supports and order — at length bounds {1, 2, 3, 5, ∞} and at
// 1/2/4 threads with a split threshold of 1 (every subtree is spawned, so a
// spawned task starts from its holder's copied list). A pattern-capped or
// cancelled mine is a prefix of the reference at one thread, and an ordered
// subsequence of it at more threads, where shards are truncated separately.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fpm/closed_miner.hpp"
#include "testutil/full_scan_closed.hpp"

namespace dfp {
namespace {

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
constexpr std::uint64_t kNumSeeds = 12;

// Seeds cycle through sparse, mid and dense tables; dense ones give deep
// closure subtrees whose nodes inherit lists several levels down.
TransactionDatabase RandomDb(std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t n = 90;
    const std::size_t items = 14;
    const double density = seed % 3 == 0 ? 0.25 : (seed % 3 == 1 ? 0.5 : 0.7);
    std::vector<std::vector<ItemId>> txns(n);
    std::vector<ClassLabel> labels(n);
    for (std::size_t t = 0; t < n; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(density)) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % items));
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items, 2);
}

MinerConfig SeedConfig(std::uint64_t seed) {
    MinerConfig config;
    config.min_sup_rel = seed % 3 == 0 ? 0.05 : 0.15;
    config.include_singletons = seed % 2 == 0;
    config.split_work_threshold = 1;
    return config;
}

MineOutcome<Pattern> MineOrDie(const TransactionDatabase& db,
                               const MinerConfig& config) {
    auto mined = ClosedMiner().MineBudgeted(db, config);
    EXPECT_TRUE(mined.ok()) << mined.status();
    return mined.ok() ? std::move(*mined) : MineOutcome<Pattern>{};
}

bool SamePattern(const Pattern& a, const Pattern& b) {
    return a.items == b.items && a.support == b.support;
}

// `got` is `want` itself (exact), a prefix of it, or an ordered subsequence.
enum class Shape { kEqual, kPrefix, kSubsequence };

void ExpectShape(const std::vector<Pattern>& got,
                 const std::vector<Pattern>& want, Shape shape,
                 const std::string& where) {
    if (shape == Shape::kEqual) {
        ASSERT_EQ(got.size(), want.size()) << where;
    } else {
        ASSERT_LE(got.size(), want.size()) << where;
    }
    std::size_t w = 0;
    for (std::size_t g = 0; g < got.size(); ++g, ++w) {
        if (shape == Shape::kSubsequence) {
            while (w < want.size() && !SamePattern(got[g], want[w])) ++w;
            ASSERT_LT(w, want.size()) << where << ": pattern " << g
                                      << " is not in the reference order";
            continue;
        }
        ASSERT_EQ(got[g].items, want[g].items) << where << " at " << g;
        ASSERT_EQ(got[g].support, want[g].support) << where << " at " << g;
    }
}

// max_pattern_len × threads.
using ListCase = std::tuple<std::size_t, std::size_t>;

class ClosedConditionalListTest : public ::testing::TestWithParam<ListCase> {};

TEST_P(ClosedConditionalListTest, MatchesFullScanReference) {
    const auto [max_len, threads] = GetParam();
    std::size_t total = 0;
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        const auto db = RandomDb(seed);
        MinerConfig config = SeedConfig(seed);
        config.max_pattern_len = max_len;
        const std::vector<Pattern> want = testutil::FullScanClosed(db, config);
        config.num_threads = threads;
        const MineOutcome<Pattern> got = MineOrDie(db, config);
        EXPECT_FALSE(got.truncated());
        ExpectShape(got.patterns, want, Shape::kEqual,
                    "seed " + std::to_string(seed));
        total += want.size();
    }
    EXPECT_GT(total, 3 * kNumSeeds) << "the pools are too small to certify";
}

TEST_P(ClosedConditionalListTest, PatternCapTruncationFollowsReference) {
    const auto [max_len, threads] = GetParam();
    const Shape shape = threads == 1 ? Shape::kPrefix : Shape::kSubsequence;
    for (std::uint64_t seed = 1; seed <= kNumSeeds; seed += 3) {
        const auto db = RandomDb(seed);
        MinerConfig config = SeedConfig(seed);
        config.max_pattern_len = max_len;
        const std::vector<Pattern> want = testutil::FullScanClosed(db, config);
        config.num_threads = threads;
        for (const std::size_t cap : {1, 5, 17, 60}) {
            config.max_patterns = cap;
            const MineOutcome<Pattern> got = MineOrDie(db, config);
            ExpectShape(got.patterns, want, shape,
                        "seed " + std::to_string(seed) + " cap " +
                            std::to_string(cap));
        }
    }
}

TEST_P(ClosedConditionalListTest, CancelTruncationFollowsReference) {
    const auto [max_len, threads] = GetParam();
    const Shape shape = threads == 1 ? Shape::kPrefix : Shape::kSubsequence;
    bool truncated = false;
    for (std::uint64_t seed = 2; seed <= kNumSeeds; seed += 3) {
        const auto db = RandomDb(seed);
        MinerConfig config = SeedConfig(seed);
        config.max_pattern_len = max_len;
        const std::vector<Pattern> want = testutil::FullScanClosed(db, config);
        config.num_threads = threads;
        for (const std::int64_t checks : {1, 7, 40, 150}) {
            CancelToken token;
            token.CancelAfterChecks(checks);
            config.budget.cancel = &token;
            const MineOutcome<Pattern> got = MineOrDie(db, config);
            ExpectShape(got.patterns, want, shape,
                        "seed " + std::to_string(seed) + " checks " +
                            std::to_string(checks));
            truncated = truncated || got.breach == BudgetBreach::kCancelled;
        }
    }
    EXPECT_TRUE(truncated) << "no cancel landed inside a mine";
}

INSTANTIATE_TEST_SUITE_P(
    LenThreads, ClosedConditionalListTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{5},
                                         kUnbounded),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4})));

}  // namespace
}  // namespace dfp
