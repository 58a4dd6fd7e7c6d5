// Certificates for the lazy-greedy MMRFS loop (DESIGN.md §17): RunMmrfs must
// select exactly what the naive Algorithm 1 reference (tests/testutil) does —
// the same indices in the same order with bitwise-equal gains — over 20
// seeded pools, with and without the chi²-BH significance mask, δ ∈ {1, 3},
// with and without a feature cap, and over many-class pools whose covers span
// more than 64 words (the one-pass redundancy kernel and the word-wise
// coverage update), and the coverage planes at δ ∈ {0, 1, 2, 3, 5} against
// the naive row-by-row counts. Focused cases pin the tie-break, the monotone needy
// discard, budget truncation and the counters, and the two-tier queue's
// tie-break across tiers and its discard-heavy path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/mmrfs.hpp"
#include "fpm/closed_miner.hpp"
#include "obs/metrics.hpp"
#include "stats/significance.hpp"
#include "testutil/naive_mmrfs.hpp"

namespace dfp {
namespace {

constexpr std::uint64_t kNumSeeds = 20;

// Labels lean on items 0 and 1, so some patterns are significant and the
// chi²-BH mask keeps a real subset; odd seeds use three classes.
TransactionDatabase SignalDb(std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t n = 80;
    const std::size_t items = 12;
    const std::size_t classes = seed % 2 == 0 ? 2 : 3;
    std::vector<std::vector<ItemId>> txns(n);
    std::vector<ClassLabel> labels(n);
    for (std::size_t t = 0; t < n; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(0.4)) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % items));
        const bool has0 = txns[t].front() == 0;
        const bool has1 = std::find(txns[t].begin(), txns[t].end(), ItemId{1}) !=
                          txns[t].end();
        std::uint64_t y = has0 ? 0 : (has1 ? 1 : classes - 1);
        if (rng.Bernoulli(0.25)) y = rng.UniformInt(std::uint64_t{classes});
        labels[t] = static_cast<ClassLabel>(y);
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items,
                                                 classes);
}

std::vector<Pattern> MinePool(const TransactionDatabase& db) {
    MinerConfig config;
    config.min_sup_rel = 0.08;
    auto mined = ClosedMiner().Mine(db, config);
    EXPECT_TRUE(mined.ok()) << mined.status();
    std::vector<Pattern> candidates = mined.ok() ? std::move(*mined)
                                                 : std::vector<Pattern>{};
    AttachMetadata(db, &candidates);
    return candidates;
}

std::vector<char> Chi2BhMask(const TransactionDatabase& db,
                             const std::vector<Pattern>& candidates) {
    SignificanceConfig config;
    config.test = SigTest::kChi2;
    config.correction = Correction::kBenjaminiHochberg;
    config.alpha = 0.05;
    return RunSignificanceFilter(db, candidates, config).keep;
}

void ExpectSameSelection(const MmrfsResult& got, const MmrfsResult& want,
                         const std::string& where) {
    EXPECT_EQ(got.selected, want.selected) << where;
    // operator== on double vectors is exact — the bitwise certificate.
    EXPECT_EQ(got.gains, want.gains) << where;
    EXPECT_EQ(got.relevance, want.relevance) << where;
    EXPECT_EQ(got.coverage, want.coverage) << where;
    EXPECT_EQ(got.breach, BudgetBreach::kNone) << where;
}

// masked × δ × max_features.
using CertCase = std::tuple<bool, std::size_t, std::size_t>;

class LazyMmrfsCertificateTest : public ::testing::TestWithParam<CertCase> {};

TEST_P(LazyMmrfsCertificateTest, MatchesNaiveReferenceBitwise) {
    const auto [masked, delta, cap] = GetParam();
    std::size_t kept_total = 0;
    std::size_t pool_total = 0;
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        const auto db = SignalDb(seed);
        const auto candidates = MinePool(db);
        ASSERT_FALSE(candidates.empty());
        const std::vector<char> mask =
            masked ? Chi2BhMask(db, candidates) : std::vector<char>{};
        for (char k : mask) kept_total += k != 0;
        pool_total += candidates.size();

        MmrfsConfig config;
        config.coverage_delta = delta;
        config.max_features = cap;
        config.candidate_mask = masked ? &mask : nullptr;
        const MmrfsResult want = testutil::NaiveMmrfs(db, candidates, config);
        const MmrfsResult got = RunMmrfs(db, candidates, config);
        ExpectSameSelection(got, want, "seed " + std::to_string(seed));
        if (cap != std::numeric_limits<std::size_t>::max()) {
            EXPECT_LE(got.selected.size(), cap);
        }
    }
    if (masked) {
        // The mask must actually filter, or the masked axis certifies nothing.
        EXPECT_GT(kept_total, 0u);
        EXPECT_LT(kept_total, pool_total);
    }
}

INSTANTIATE_TEST_SUITE_P(
    MaskDeltaCap, LazyMmrfsCertificateTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(std::size_t{1}, std::size_t{3}),
                       ::testing::Values(std::numeric_limits<std::size_t>::max(),
                                         std::size_t{4})));

// 4500 rows (71 cover words) over 8 classes. Every row holds its class's
// item (c < 8), sometimes a second class item, and at least one of six noise
// items, so {c} and its noise extensions can cover each row δ = 2 times.
TransactionDatabase ManyClassDb(std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t n = 4500;
    const std::size_t classes = 8;
    const std::size_t items = classes + 6;
    std::vector<std::vector<ItemId>> txns(n);
    std::vector<ClassLabel> labels(n);
    for (std::size_t t = 0; t < n; ++t) {
        const std::uint64_t y = rng.UniformInt(std::uint64_t{classes});
        labels[t] = static_cast<ClassLabel>(y);
        txns[t].push_back(static_cast<ItemId>(y));
        if (rng.Bernoulli(0.15)) {
            const auto other =
                static_cast<ItemId>(rng.UniformInt(std::uint64_t{classes}));
            if (other != y) txns[t].push_back(other);
        }
        bool noisy = false;
        for (ItemId i = classes; i < items; ++i) {
            if (rng.Bernoulli(0.4)) {
                txns[t].push_back(i);
                noisy = true;
            }
        }
        if (!noisy) txns[t].push_back(static_cast<ItemId>(classes + t % 6));
        std::sort(txns[t].begin(), txns[t].end());
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items,
                                                 classes);
}

// masked × max_features, at δ = 2.
using WideCase = std::tuple<bool, std::size_t>;

class LazyMmrfsWideCertificateTest : public ::testing::TestWithParam<WideCase> {
};

TEST_P(LazyMmrfsWideCertificateTest, ManyClassWideCoversMatchNaiveBitwise) {
    const auto [masked, cap] = GetParam();
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const auto db = ManyClassDb(seed);
        MinerConfig mine_config;
        mine_config.min_sup_rel = 0.01;
        mine_config.max_pattern_len = 3;
        auto mined = ClosedMiner().Mine(db, mine_config);
        ASSERT_TRUE(mined.ok()) << mined.status();
        std::vector<Pattern> candidates = std::move(*mined);
        AttachMetadata(db, &candidates);
        ASSERT_GT(candidates.size(), 100u);
        ASSERT_GT(candidates.front().cover.size(), 64u * 64u);
        const std::vector<char> mask =
            masked ? Chi2BhMask(db, candidates) : std::vector<char>{};

        MmrfsConfig config;
        config.coverage_delta = 2;
        config.max_features = cap;
        config.candidate_mask = masked ? &mask : nullptr;
        const MmrfsResult want = testutil::NaiveMmrfs(db, candidates, config);
        const MmrfsResult got = RunMmrfs(db, candidates, config);
        ExpectSameSelection(got, want, "seed " + std::to_string(seed));
        // Every class gets patterns, and redundancy is actually exercised.
        EXPECT_GT(got.selected.size(), 8u);
        EXPECT_LE(got.selected.size(), cap);
    }
}

INSTANTIATE_TEST_SUITE_P(
    MaskCap, LazyMmrfsWideCertificateTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(std::numeric_limits<std::size_t>::max(),
                                         std::size_t{24})));

// masked × δ, with no cap: the coverage planes (δ of them, raised word by
// word on each accept, read into MmrfsResult::coverage once at the end)
// against the naive reference's per-row counts, on the narrow seeded pools and
// on one wide many-class pool.
using PlaneCase = std::tuple<bool, std::size_t>;

class MmrfsCoveragePlanesTest : public ::testing::TestWithParam<PlaneCase> {};

TEST_P(MmrfsCoveragePlanesTest, PlanesMatchNaiveCoverageBitwise) {
    const auto [masked, delta] = GetParam();
    std::size_t rows_at_delta = 0;
    std::size_t rows_below_delta = 0;
    auto certify = [&](const TransactionDatabase& db,
                       const std::vector<Pattern>& candidates,
                       const std::string& where) {
        const std::vector<char> mask =
            masked ? Chi2BhMask(db, candidates) : std::vector<char>{};
        MmrfsConfig config;
        config.coverage_delta = delta;
        config.candidate_mask = masked ? &mask : nullptr;
        const MmrfsResult want = testutil::NaiveMmrfs(db, candidates, config);
        const MmrfsResult got = RunMmrfs(db, candidates, config);
        ExpectSameSelection(got, want, where);
        ASSERT_EQ(got.coverage.size(), db.num_transactions()) << where;
        for (std::size_t c : got.coverage) {
            ASSERT_LE(c, delta) << where;
            rows_at_delta += c == delta;
            rows_below_delta += c < delta;
        }
        if (delta == 0) {
            EXPECT_TRUE(got.selected.empty()) << where;
        }
    };
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        const auto db = SignalDb(seed);
        const auto candidates = MinePool(db);
        ASSERT_FALSE(candidates.empty());
        certify(db, candidates, "seed " + std::to_string(seed));
    }
    {
        const auto db = ManyClassDb(1);
        MinerConfig mine_config;
        mine_config.min_sup_rel = 0.01;
        mine_config.max_pattern_len = 3;
        auto mined = ClosedMiner().Mine(db, mine_config);
        ASSERT_TRUE(mined.ok()) << mined.status();
        std::vector<Pattern> candidates = std::move(*mined);
        AttachMetadata(db, &candidates);
        certify(db, candidates, "wide pool");
    }
    // Every δ > 0 run has rows that reached δ and rows that did not, so both
    // the top plane and the lower ones are read.
    if (delta > 0) {
        EXPECT_GT(rows_at_delta, 0u);
        EXPECT_GT(rows_below_delta, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    MaskDelta, MmrfsCoveragePlanesTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{3},
                                         std::size_t{5})));

// Rows 0-1 hold items {0,1} (class 0), rows 2-3 hold item {2} (class 1):
// {2}, {0,1} and {0} split the classes perfectly, so all three score the
// same relevance and the argmax tie must go to the lowest index each round.
TransactionDatabase TieDb() {
    return TransactionDatabase::FromTransactions({{0, 1}, {0, 1}, {2}, {2}},
                                                 {0, 0, 1, 1}, 3, 2);
}

std::vector<Pattern> WithMetadata(const TransactionDatabase& db,
                                  std::vector<Itemset> itemsets) {
    std::vector<Pattern> patterns;
    for (Itemset& items : itemsets) {
        Pattern p;
        p.items = std::move(items);
        patterns.push_back(std::move(p));
    }
    AttachMetadata(db, &patterns);
    return patterns;
}

TEST(LazyMmrfsTest, EqualGainsResolveToLowestIndex) {
    const auto db = TieDb();
    // {0,1} and {0} have identical covers; {2} mirrors them on class 1.
    const auto candidates = WithMetadata(db, {{2}, {0, 1}, {0}});
    MmrfsConfig config;
    config.coverage_delta = 2;
    const MmrfsResult got = RunMmrfs(db, candidates, config);
    ASSERT_EQ(got.relevance[0], got.relevance[1]);
    ASSERT_EQ(got.relevance[1], got.relevance[2]);
    ASSERT_GT(got.relevance[0], 0.0);
    // Round 1: three-way tie → 0. Round 2: 1 and 2 are disjoint from 0, still
    // tied → 1. Round 3: 2 duplicates 1 (gain 0) but rows 0-1 still need a
    // second cover, so it is accepted.
    EXPECT_EQ(got.selected, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(got.gains, (std::vector<double>{got.relevance[0],
                                              got.relevance[1], 0.0}));
    ExpectSameSelection(got, testutil::NaiveMmrfs(db, candidates, config),
                        "tie pool");
}

TEST(LazyMmrfsTest, CandidateCoveringNoNeedyRowIsDiscardedUnrefreshed) {
    const auto db = TieDb();
    // {0,2} occurs in no row: it can never correctly cover anything.
    const auto candidates = WithMetadata(db, {{0, 2}, {2}, {0}});
    ASSERT_EQ(candidates[0].support, 0u);
    auto& registry = obs::Registry::Get();
    auto& discarded = registry.GetCounter("dfp.core.mmrfs.discarded");
    auto& evals = registry.GetCounter("dfp.core.mmrfs.redundancy_evals");
    const auto discarded_before = discarded.value();
    const auto evals_before = evals.value();

    MmrfsConfig config;
    config.coverage_delta = 5;  // never satisfied: the pool runs dry
    const MmrfsResult got = RunMmrfs(db, candidates, config);
    EXPECT_EQ(got.selected, (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(discarded.value() - discarded_before, 1u);
    // Only {0} is ever refreshed (against {2}); the empty-cover candidate is
    // dropped on its first pop without a redundancy evaluation.
    EXPECT_EQ(evals.value() - evals_before, 1u);
    ExpectSameSelection(got, testutil::NaiveMmrfs(db, candidates, config),
                        "dead candidate pool");
}

// A cancel fired at any check inside the greedy loop leaves exactly a prefix
// of the uncancelled selection, gains included.
TEST(LazyMmrfsTest, CancelMidLoopReturnsGreedyPrefix) {
    const auto db = SignalDb(7);
    const auto candidates = MinePool(db);
    MmrfsConfig config;
    config.coverage_delta = 3;
    const MmrfsResult full = RunMmrfs(db, candidates, config);
    ASSERT_GT(full.selected.size(), 2u);

    bool truncated = false;
    for (std::int64_t extra = 1; extra <= 200; extra += 7) {
        CancelToken token;
        // The relevance scan polls once per candidate; the rest land in the
        // greedy loop.
        token.CancelAfterChecks(static_cast<std::int64_t>(candidates.size()) +
                                extra);
        config.budget.cancel = &token;
        const MmrfsResult got = RunMmrfs(db, candidates, config);
        ASSERT_LE(got.selected.size(), full.selected.size());
        ASSERT_EQ(got.gains.size(), got.selected.size());
        for (std::size_t k = 0; k < got.selected.size(); ++k) {
            EXPECT_EQ(got.selected[k], full.selected[k]) << "extra " << extra;
            EXPECT_EQ(got.gains[k], full.gains[k]) << "extra " << extra;
        }
        if (got.breach == BudgetBreach::kCancelled &&
            got.selected.size() < full.selected.size()) {
            truncated = true;
        }
    }
    EXPECT_TRUE(truncated) << "no cancel point landed inside the greedy loop";
}

TEST(LazyMmrfsTest, DeadlineReturnsGreedyPrefix) {
    const auto db = SignalDb(8);
    const auto candidates = MinePool(db);
    MmrfsConfig config;
    config.coverage_delta = 3;
    const MmrfsResult full = RunMmrfs(db, candidates, config);
    for (const double budget_ms : {0.0, 0.05, 0.2, 1.0}) {
        config.budget.time_budget_ms = budget_ms;
        const MmrfsResult got = RunMmrfs(db, candidates, config);
        ASSERT_LE(got.selected.size(), full.selected.size());
        for (std::size_t k = 0; k < got.selected.size(); ++k) {
            EXPECT_EQ(got.selected[k], full.selected[k]);
            EXPECT_EQ(got.gains[k], full.gains[k]);
        }
        if (got.breach == BudgetBreach::kNone) {
            EXPECT_EQ(got.selected, full.selected);
        } else {
            EXPECT_EQ(got.breach, BudgetBreach::kDeadline);
        }
    }
}

// The lazy loop's counters: every accept/discard decision is an iteration,
// and it spends no more redundancy evaluations than the eager loop's
// incremental cache (one per remaining candidate per accepted feature).
TEST(LazyMmrfsTest, CountersAddUpAndEvaluationsStayBelowEager) {
    auto& registry = obs::Registry::Get();
    auto& iterations = registry.GetCounter("dfp.core.mmrfs.iterations");
    auto& accepted = registry.GetCounter("dfp.core.mmrfs.accepted");
    auto& discarded = registry.GetCounter("dfp.core.mmrfs.discarded");
    auto& evals = registry.GetCounter("dfp.core.mmrfs.redundancy_evals");
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto db = SignalDb(seed);
        const auto candidates = MinePool(db);
        const auto it0 = iterations.value();
        const auto acc0 = accepted.value();
        const auto dis0 = discarded.value();
        const auto ev0 = evals.value();
        MmrfsConfig config;
        config.coverage_delta = 3;
        const MmrfsResult got = RunMmrfs(db, candidates, config);
        EXPECT_EQ(accepted.value() - acc0, got.selected.size());
        EXPECT_EQ(iterations.value() - it0,
                  (accepted.value() - acc0) + (discarded.value() - dis0));
        EXPECT_LE(evals.value() - ev0,
                  got.selected.size() * candidates.size());
    }
}

// The two-tier queue: never-refreshed candidates in one sorted array,
// refreshed ones in a heap, the front the leader of the two under (gain desc,
// index asc).

// Rows 0-3 are class 0 and rows 4-7 class 1. Items 0 and 1 share the cover
// {0,1,2} (so a refresh of one against the other gives a gain of exactly
// r − 1·r = 0), item 2 covers {4,5} with a lower relevance, and item 3
// covers {3,7}, one row of each class, so its relevance is 0.
TransactionDatabase TierDb() {
    return TransactionDatabase::FromTransactions(
        {{0, 1}, {0, 1}, {0, 1}, {3}, {2}, {2}, {}, {3}},
        {0, 0, 0, 0, 1, 1, 1, 1}, 4, 2);
}

// Equal gains split across the tiers: once the first copy of {0,1,2} is
// selected, its twin is refreshed to gain 0 and waits in the heap while the
// zero-relevance candidate waits unrefreshed in the sorted tier. The tie
// goes to the lower index, from the heap in one order and from the sorted
// tier in the other.
TEST(LazyMmrfsTierTest, EqualGainsAcrossTiersResolveToLowestIndex) {
    const auto db = TierDb();
    MmrfsConfig config;
    config.coverage_delta = 100;  // never satisfied: every candidate is taken
    // {P, D, Q, Z}: the refreshed twin D (index 1) beats Z (index 3).
    const auto heap_wins = WithMetadata(db, {{0}, {1}, {2}, {3}});
    // {P, Z, Q, D}: Z (index 1) beats the refreshed twin D (index 3).
    const auto sorted_wins = WithMetadata(db, {{0}, {3}, {2}, {1}});
    for (const auto* candidates : {&heap_wins, &sorted_wins}) {
        const MmrfsResult got = RunMmrfs(db, *candidates, config);
        const std::size_t twin = candidates == &heap_wins ? 1 : 3;
        const std::size_t zero = candidates == &heap_wins ? 3 : 1;
        ASSERT_EQ(got.relevance[0], got.relevance[twin]);
        ASSERT_GT(got.relevance[0], got.relevance[2]);
        ASSERT_GT(got.relevance[2], 0.0);
        ASSERT_EQ(got.relevance[zero], 0.0);
        EXPECT_EQ(got.selected, (std::vector<std::size_t>{0, 2, 1, 3}));
        ASSERT_EQ(got.gains.size(), 4u);
        EXPECT_EQ(got.gains[2], 0.0);
        EXPECT_EQ(got.gains[3], 0.0);
        ExpectSameSelection(got, testutil::NaiveMmrfs(db, *candidates, config),
                            twin == 1 ? "heap wins" : "sorted tier wins");
    }
}

// δ = 1 on a mined pool: after a few selections most candidates only cover
// rows already covered, so most pops discard a candidate straight from the
// sorted tier. The selection still equals the naive reference.
TEST(LazyMmrfsTierTest, DiscardHeavyPoolMatchesNaive) {
    auto& registry = obs::Registry::Get();
    auto& accepted = registry.GetCounter("dfp.core.mmrfs.accepted");
    auto& discarded = registry.GetCounter("dfp.core.mmrfs.discarded");
    std::uint64_t total_accepted = 0;
    std::uint64_t total_discarded = 0;
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        const auto db = SignalDb(seed);
        const auto candidates = MinePool(db);
        MmrfsConfig config;
        config.coverage_delta = 1;
        const auto acc0 = accepted.value();
        const auto dis0 = discarded.value();
        const MmrfsResult got = RunMmrfs(db, candidates, config);
        total_accepted += accepted.value() - acc0;
        total_discarded += discarded.value() - dis0;
        ExpectSameSelection(got, testutil::NaiveMmrfs(db, candidates, config),
                            "seed " + std::to_string(seed));
    }
    EXPECT_GT(total_discarded, 2 * total_accepted);
}

}  // namespace
}  // namespace dfp
