// Equivalence certificate for window mining: Eclat over the stream's
// SnapshotWindow() — what ContinuousTrainer::RetrainNow mines — must return
// exactly what mining an independently kept copy of the window returns, when
// that copy is rebuilt the way the trainer's former shadow-window miner did
// (unlabelled rows, one class). Across 20 seeded drifting streams, at every
// checkpoint of the window lifecycle (growth, sliding eviction, concept
// change), the two pattern vectors must agree in order, items and support.
// Hand-computed cases pin the window mine's supports through growth,
// eviction and the trainer's singleton/length filters, and a held snapshot
// must keep mining its own window while later appends evict its rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "fpm/eclat.hpp"
#include "stream/streaming_db.hpp"
#include "testutil/drift_source.hpp"

namespace dfp::stream {
namespace {

using Mined = std::vector<std::pair<Itemset, std::size_t>>;

Mined ItemsAndSupport(const std::vector<Pattern>& patterns) {
    Mined out;
    out.reserve(patterns.size());
    for (const Pattern& p : patterns) out.emplace_back(p.items, p.support);
    return out;
}

/// Canonical form: sorted (itemset → support) map; mining order is
/// unspecified, support must be exact.
std::map<Itemset, std::size_t> Canon(const std::vector<Pattern>& patterns) {
    std::map<Itemset, std::size_t> canon;
    for (const Pattern& p : patterns) {
        EXPECT_TRUE(std::is_sorted(p.items.begin(), p.items.end()));
        EXPECT_TRUE(canon.emplace(p.items, p.support).second)
            << "duplicate pattern emitted";
    }
    return canon;
}

std::unique_ptr<StreamingDatabase> Stream(std::size_t num_items,
                                          std::size_t window_capacity) {
    StreamConfig config;
    config.num_items = num_items;
    config.num_classes = 2;
    config.window_capacity = window_capacity;
    auto db = StreamingDatabase::Create(config);
    EXPECT_TRUE(db.ok()) << db.status();
    return std::move(db).value();
}

void AppendRows(StreamingDatabase* db, std::vector<std::vector<ItemId>> rows) {
    TransactionBatch batch;
    batch.labels.assign(rows.size(), 0);
    batch.transactions = std::move(rows);
    const auto appended = db->Append(std::move(batch));
    ASSERT_TRUE(appended.ok()) << appended.status();
}

/// What ContinuousTrainer::RetrainNow mines: Eclat over the snapshot.
std::vector<Pattern> MineWindow(const StreamingDatabase& db,
                                const MinerConfig& config) {
    const auto mined = EclatMiner().Mine(*db.SnapshotWindow(), config);
    EXPECT_TRUE(mined.ok()) << mined.status();
    return mined.ok() ? *mined : std::vector<Pattern>{};
}

TEST(WindowMinerTest, EmptyWindowMinesNothing) {
    const auto db = Stream(6, 8);
    MinerConfig config;
    config.min_sup_rel = 0.5;
    EXPECT_EQ(db->SnapshotWindow()->num_transactions(), 0u);
    EXPECT_TRUE(MineWindow(*db, config).empty());
}

TEST(WindowMinerTest, HandComputedSupports) {
    // Window: {0,1,2} ×2, {0,2} ×1, {1} ×1 (rows arrive unsorted and with
    // repeats; the stream canonicalizes them). min_sup_abs = 2.
    const auto db = Stream(4, 8);
    AppendRows(db.get(), {{2, 0, 1}, {0, 1, 2, 2}});
    AppendRows(db.get(), {{2, 0}, {1}});
    MinerConfig config;
    config.min_sup_rel = -1.0;
    config.min_sup_abs = 2;
    const std::map<Itemset, std::size_t> want = {
        {{0}, 3},    {{1}, 3},    {{2}, 3},       {{0, 1}, 2},
        {{0, 2}, 3}, {{1, 2}, 2}, {{0, 1, 2}, 2},
    };
    EXPECT_EQ(Canon(MineWindow(*db, config)), want);
}

TEST(WindowMinerTest, EvictionUpdatesSupports) {
    // Capacity 2: the first {0,1} leaves the window when {0} arrives.
    const auto db = Stream(4, 2);
    AppendRows(db.get(), {{0, 1}, {0, 1}});
    AppendRows(db.get(), {{0}});
    EXPECT_EQ(db->window_size(), 2u);
    MinerConfig config;
    config.min_sup_rel = -1.0;
    config.min_sup_abs = 1;
    const std::map<Itemset, std::size_t> want = {
        {{0}, 2}, {{1}, 1}, {{0, 1}, 1}};
    EXPECT_EQ(Canon(MineWindow(*db, config)), want);
}

TEST(WindowMinerTest, HonoursSingletonAndLengthFilters) {
    const auto db = Stream(5, 8);
    AppendRows(db.get(), {{0, 1, 2, 3}, {0, 1, 2, 3}});
    MinerConfig config;
    config.min_sup_rel = -1.0;
    config.min_sup_abs = 2;
    config.include_singletons = false;
    config.max_pattern_len = 2;
    const auto mined = MineWindow(*db, config);
    for (const Pattern& p : mined) EXPECT_EQ(p.items.size(), 2u);
    EXPECT_EQ(mined.size(), 6u);  // C(4,2) pairs, each support 2
}

TEST(SnapshotMineTest, HeldSnapshotMinesItsOwnWindowAfterAppends) {
    // RetrainNow mines its snapshot after releasing the ingest mutex, so a
    // snapshot must stay the window it was taken from while later appends
    // evict the rows it was built from.
    StreamConfig stream_config;
    stream_config.num_items = 4;
    stream_config.num_classes = 2;
    stream_config.window_capacity = 3;
    auto db = StreamingDatabase::Create(stream_config);
    ASSERT_TRUE(db.ok());
    AppendRows(db->get(), {{0, 1}, {0, 1}, {0, 2}});
    const auto held = (*db)->SnapshotWindow();

    MinerConfig config;
    config.min_sup_rel = -1.0;
    config.min_sup_abs = 1;
    const auto before = EclatMiner().Mine(*held, config);
    ASSERT_TRUE(before.ok()) << before.status();
    const std::map<Itemset, std::size_t> want_held = {
        {{0}, 3}, {{1}, 2}, {{2}, 1}, {{0, 1}, 2}, {{0, 2}, 1}};
    EXPECT_EQ(Canon(*before), want_held);

    AppendRows(db->get(), {{3}, {2, 3}});
    AppendRows(db->get(), {{1, 3}});
    // Every row the held snapshot was built from has left the window.
    ASSERT_EQ((*db)->window_first_seq(), 3u);
    ASSERT_EQ((*db)->window_size(), 3u);

    const auto after = EclatMiner().Mine(*held, config);
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(ItemsAndSupport(*after), ItemsAndSupport(*before));

    const std::map<Itemset, std::size_t> want_now = {
        {{1}, 1}, {{2}, 1}, {{3}, 3}, {{1, 3}, 1}, {{2, 3}, 1}};
    EXPECT_EQ(Canon(MineWindow(**db, config)), want_now);
}

TEST(SnapshotMineTest, MatchesRebuiltWindowOn20SeededStreams) {
    constexpr std::uint64_t kStreams = 20;
    constexpr std::size_t kWindowCapacity = 160;
    constexpr std::size_t kBatch = 40;

    // The trainer's window-mining config: singletons dropped, no budget.
    MinerConfig mine_config;
    mine_config.min_sup_rel = 0.15;
    mine_config.max_pattern_len = 5;
    mine_config.include_singletons = false;

    std::size_t checkpoints = 0;
    std::size_t patterns = 0;
    for (std::uint64_t seed = 1; seed <= kStreams; ++seed) {
        testutil::DriftSourceConfig source_config;
        source_config.num_phases = 2;
        source_config.rows_per_phase = 400;
        source_config.eval_rows = 10;
        source_config.attributes = 6;
        source_config.arity = 3;
        source_config.seed = seed;
        testutil::DriftSource source(source_config);

        StreamConfig stream_config;
        stream_config.num_items = source.num_items();
        stream_config.num_classes = source.num_classes();
        stream_config.window_capacity = kWindowCapacity;
        auto db = StreamingDatabase::Create(stream_config);
        ASSERT_TRUE(db.ok());

        std::deque<std::vector<ItemId>> shadow;  // canonical rows, FIFO
        while (!source.exhausted()) {
            TransactionBatch batch = source.NextBatch(kBatch);
            for (auto txn : batch.transactions) {
                std::sort(txn.begin(), txn.end());
                txn.erase(std::unique(txn.begin(), txn.end()), txn.end());
                shadow.push_back(std::move(txn));
            }
            while (shadow.size() > kWindowCapacity) shadow.pop_front();
            ASSERT_TRUE((*db)->Append(std::move(batch)).ok());

            const auto snapshot = (*db)->SnapshotWindow();
            ASSERT_EQ(snapshot->num_transactions(), shadow.size());
            const auto from_snapshot = EclatMiner().Mine(*snapshot, mine_config);
            ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.status();

            std::vector<std::vector<ItemId>> rows(shadow.begin(), shadow.end());
            std::vector<ClassLabel> zeros(rows.size(), 0);
            const TransactionDatabase rebuilt =
                TransactionDatabase::FromTransactions(
                    std::move(rows), std::move(zeros), source.num_items(),
                    /*num_classes=*/1);
            const auto reference = EclatMiner().Mine(rebuilt, mine_config);
            ASSERT_TRUE(reference.ok()) << reference.status();

            ASSERT_EQ(ItemsAndSupport(*from_snapshot), ItemsAndSupport(*reference))
                << "stream seed " << seed << ", checkpoint " << checkpoints;
            ++checkpoints;
            patterns += reference->size();
        }
    }
    // 20 streams × 20 batches, the window sliding from the 5th batch on.
    EXPECT_EQ(checkpoints, kStreams * 20);
    EXPECT_GT(patterns, 0u);
}

}  // namespace
}  // namespace dfp::stream
