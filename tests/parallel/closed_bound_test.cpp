// Certificates for ClosedMiner's length bound (DESIGN.md §17): a mine bounded
// at max_pattern_len ∈ {1, 2, 3, 5, ∞} must equal the unbounded serial mine
// followed by FilterPatterns — same itemsets, supports and order — at 1/2/4
// threads, on seeded pools (split threshold 1, so every parallel subtree is
// spawned) and on the chess shape. The bound must prune the DFS, not filter
// after it: fewer nodes expanded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "exp/experiment.hpp"
#include "fpm/closed_miner.hpp"
#include "obs/metrics.hpp"

namespace dfp {
namespace {

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

TransactionDatabase RandomDb(std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t n = 60;
    const std::size_t items = 12;
    std::vector<std::vector<ItemId>> txns(n);
    std::vector<ClassLabel> labels(n);
    for (std::size_t t = 0; t < n; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(0.5)) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % items));
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items, 2);
}

const TransactionDatabase& ChessDb() {
    static const TransactionDatabase db = PrepareTransactions(ChessSpec());
    return db;
}

MinerConfig ChessConfig() {
    MinerConfig config;
    config.min_sup_abs = 1600;  // the train-dense threshold
    return config;
}

std::vector<Pattern> MineOrDie(const TransactionDatabase& db,
                               const MinerConfig& config) {
    auto mined = ClosedMiner().Mine(db, config);
    EXPECT_TRUE(mined.ok()) << mined.status();
    return mined.ok() ? std::move(*mined) : std::vector<Pattern>{};
}

// Bounded mine at `threads` == unbounded serial mine + FilterPatterns.
void ExpectBoundedEqualsFiltered(const TransactionDatabase& db,
                                 MinerConfig config, std::size_t max_len,
                                 std::size_t threads, const std::string& where) {
    config.num_threads = 1;
    config.max_pattern_len = kUnbounded;
    std::vector<Pattern> want = MineOrDie(db, config);
    config.max_pattern_len = max_len;
    FilterPatterns(config, &want);

    config.num_threads = threads;
    const std::vector<Pattern> got = MineOrDie(db, config);
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].items, want[k].items) << where << " at " << k;
        ASSERT_EQ(got[k].support, want[k].support) << where << " at " << k;
    }
}

// max_pattern_len × threads.
using BoundCase = std::tuple<std::size_t, std::size_t>;

class ClosedBoundTest : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ClosedBoundTest, BoundedMineEqualsFilteredUnboundedMine) {
    const auto [max_len, threads] = GetParam();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        MinerConfig config;
        config.min_sup_rel = 0.1;
        config.include_singletons = seed % 2 == 0;
        config.split_work_threshold = 1;
        ExpectBoundedEqualsFiltered(RandomDb(seed), config, max_len, threads,
                                    "seed " + std::to_string(seed));
    }
    ExpectBoundedEqualsFiltered(ChessDb(), ChessConfig(), max_len, threads,
                                "chess");
}

INSTANTIATE_TEST_SUITE_P(
    LenThreads, ClosedBoundTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{5},
                                         kUnbounded),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4})));

TEST(ClosedBoundPruningTest, ChessNodesExpandedFall) {
    auto& nodes = obs::Registry::Get().GetCounter("dfp.fpm.closed.nodes_expanded");
    MinerConfig config = ChessConfig();
    auto mine_nodes = [&](std::size_t max_len, std::vector<Pattern>* out) {
        config.max_pattern_len = max_len;
        const auto before = nodes.value();
        *out = MineOrDie(ChessDb(), config);
        return nodes.value() - before;
    };
    std::vector<Pattern> all;
    std::vector<Pattern> bounded;
    const auto all_nodes = mine_nodes(kUnbounded, &all);
    const auto bounded_nodes = mine_nodes(5, &bounded);
    // The bound bites on this shape: closures run past length 5.
    const auto longest = std::max_element(
        all.begin(), all.end(), [](const Pattern& a, const Pattern& b) {
            return a.length() < b.length();
        });
    ASSERT_NE(longest, all.end());
    EXPECT_GT(longest->length(), 5u);
    EXPECT_LT(bounded.size(), all.size());
    EXPECT_LT(bounded_nodes, all_nodes);
}

}  // namespace
}  // namespace dfp
