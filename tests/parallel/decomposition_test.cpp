// Certificates for the recursive mining decomposition (DESIGN.md §17):
//  * with the split threshold forced to 1 every conditional subproblem
//    re-submits to the TaskGroup, and the sharded merge must still reproduce
//    the one-thread pattern sequence byte for byte at every thread count,
//    with the same work counters (nodes, closure checks, diffset classes,
//    patterns emitted);
//  * a budget cancelled mid-recursive-split must leave a well-formed partial
//    MineOutcome that is a *subsequence* of the serial emission sequence.
// The lazy-greedy MMRFS certificates live in mmrfs_lazy_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "obs/metrics.hpp"

namespace dfp {
namespace {

TransactionDatabase RandomDb(std::uint64_t seed, std::size_t n = 60,
                             std::size_t items = 12, double density = 0.35) {
    Rng rng(seed);
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

std::unique_ptr<Miner> MakeMiner(const std::string& name) {
    if (name == "eclat") return std::make_unique<EclatMiner>();
    if (name == "closed") return std::make_unique<ClosedMiner>();
    return nullptr;
}

// The work counters a miner flushes once per mine.
std::vector<std::string> WorkCounters(const std::string& miner) {
    const std::string prefix = "dfp.fpm." + miner + ".";
    return {prefix + "nodes_expanded", prefix + "patterns_emitted",
            prefix + (miner == "closed" ? "closure_checks" : "diffset_classes")};
}

// One mine's patterns and the registry delta of its work counters.
struct CountedMine {
    Result<std::vector<Pattern>> patterns;
    std::map<std::string, std::uint64_t> counters;
};

CountedMine MineCounting(const Miner& miner, const TransactionDatabase& db,
                         const MinerConfig& config) {
    const std::vector<std::string> names = WorkCounters(miner.Name());
    std::map<std::string, std::uint64_t> before;
    for (const std::string& name : names) {
        before[name] = obs::Registry::Get().GetCounter(name).value();
    }
    CountedMine mine{miner.Mine(db, config), {}};
    for (const std::string& name : names) {
        mine.counters[name] =
            obs::Registry::Get().GetCounter(name).value() - before[name];
    }
    return mine;
}

using SplitCase = std::tuple<const char*, std::size_t>;  // miner × threads

class RecursiveSplitTest : public ::testing::TestWithParam<SplitCase> {
  protected:
    std::unique_ptr<Miner> MakeNamed() const {
        return MakeMiner(std::get<0>(GetParam()));
    }
    std::size_t Threads() const { return std::get<1>(GetParam()); }
};

// split_work_threshold = 1 forces a task split at every conditional
// subproblem with any remaining work — the maximally decomposed schedule.
// The DFS-keyed shard merge must still be the serial sequence, byte for byte,
// and every search node must be counted once, whichever task expanded it.
TEST_P(RecursiveSplitTest, ForcedSplitsReproduceSerialEmissionOrder) {
    const auto miner = MakeNamed();
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto db = RandomDb(seed);
        MinerConfig config;
        config.min_sup_rel = 0.10;
        config.num_threads = 1;
        const CountedMine one = MineCounting(*miner, db, config);
        const auto& serial = one.patterns;
        ASSERT_TRUE(serial.ok()) << serial.status();

        config.num_threads = Threads();
        config.split_work_threshold = 1;
        const CountedMine many = MineCounting(*miner, db, config);
        const auto& parallel = many.patterns;
        ASSERT_TRUE(parallel.ok()) << parallel.status();
        EXPECT_EQ(one.counters, many.counters)
            << miner->Name() << " work counters diverge under forced splits"
            << " (seed " << seed << ", threads " << Threads() << ")";
        EXPECT_EQ(
            one.counters.at("dfp.fpm." + miner->Name() + ".patterns_emitted"),
            serial->size());
        ASSERT_EQ(serial->size(), parallel->size())
            << miner->Name() << " pattern count diverges under forced splits"
            << " (seed " << seed << ", threads " << Threads() << ")";
        for (std::size_t i = 0; i < serial->size(); ++i) {
            ASSERT_EQ((*serial)[i].items, (*parallel)[i].items)
                << miner->Name() << " order diverges at position " << i
                << " (seed " << seed << ", threads " << Threads() << ")";
            ASSERT_EQ((*serial)[i].support, (*parallel)[i].support);
        }
    }
}

// A cancellation fired mid-recursive-split: some tasks complete, some are
// truncated mid-subtree, some never start. The partial outcome must still be
// well-formed (exact supports, no duplicates, breach reported) and its
// pattern sequence a subsequence of the serial emission sequence — shards
// are contiguous serial runs, so the merge can only omit, never reorder.
TEST_P(RecursiveSplitTest, MidSplitCancellationYieldsSerialSubsequence) {
    const auto miner = MakeNamed();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto db = RandomDb(seed, 40, 14, 0.45);
        MinerConfig config;
        config.min_sup_abs = 2;
        config.num_threads = 1;
        const auto serial = miner->Mine(db, config);
        ASSERT_TRUE(serial.ok()) << serial.status();

        CancelToken token;
        token.CancelAfterChecks(60 + 40 * seed);  // varied mid-mine fire points
        config.num_threads = Threads();
        config.split_work_threshold = 1;
        config.budget.cancel = &token;
        const auto outcome = miner->MineBudgeted(db, config);
        ASSERT_TRUE(outcome.ok()) << outcome.status();
        EXPECT_EQ(outcome->breach, BudgetBreach::kCancelled);

        std::set<Itemset> seen;
        for (const Pattern& p : outcome->patterns) {
            EXPECT_EQ(p.support, db.SupportOf(p.items)) << "support not exact";
            EXPECT_TRUE(seen.insert(p.items).second) << "duplicate pattern";
        }
        // Subsequence check: every partial pattern appears in the serial
        // sequence, in the serial order.
        std::size_t cursor = 0;
        for (const Pattern& p : outcome->patterns) {
            while (cursor < serial->size() &&
                   ((*serial)[cursor].items != p.items ||
                    (*serial)[cursor].support != p.support)) {
                ++cursor;
            }
            ASSERT_LT(cursor, serial->size())
                << miner->Name()
                << ": partial emission is not a subsequence of serial"
                << " (seed " << seed << ", threads " << Threads() << ")";
            ++cursor;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    MinersByThreads, RecursiveSplitTest,
    ::testing::Combine(::testing::Values("eclat", "closed"),
                       ::testing::Values(std::size_t{2}, std::size_t{3},
                                         std::size_t{8}, std::size_t{16})));

}  // namespace
}  // namespace dfp
