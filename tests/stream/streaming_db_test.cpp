// StreamingDatabase unit suite: sequencing/versioning, canonicalization,
// all-or-nothing validation, FIFO window eviction and snapshot caching.
#include "stream/streaming_db.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace dfp::stream {
namespace {

TransactionBatch Batch(std::vector<std::vector<ItemId>> txns,
                       std::vector<ClassLabel> labels) {
    TransactionBatch batch;
    batch.transactions = std::move(txns);
    batch.labels = std::move(labels);
    return batch;
}

StreamConfig SmallConfig() {
    StreamConfig config;
    config.num_items = 10;
    config.num_classes = 2;
    config.window_capacity = 4;
    return config;
}

TEST(StreamingDbTest, ValidatesConfig) {
    StreamConfig config;
    EXPECT_FALSE(StreamingDatabase::ValidateConfig(config).ok());
    config.num_items = 4;
    EXPECT_FALSE(StreamingDatabase::ValidateConfig(config).ok());
    config.num_classes = 2;
    EXPECT_TRUE(StreamingDatabase::ValidateConfig(config).ok());
    config.window_capacity = 0;
    EXPECT_FALSE(StreamingDatabase::ValidateConfig(config).ok());
}

TEST(StreamingDbTest, AppendAssignsSequencesAndVersions) {
    auto db = StreamingDatabase::Create(SmallConfig());
    ASSERT_TRUE(db.ok());
    auto r1 = (*db)->Append(Batch({{0, 1}, {2}}, {0, 1}));
    ASSERT_TRUE(r1.ok());
    EXPECT_EQ(r1->first_seq, 0u);
    EXPECT_EQ(r1->version, 1u);
    EXPECT_EQ((*db)->window_first_seq(), 0u);

    auto r2 = (*db)->Append(Batch({{3}}, {0}));
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r2->first_seq, 2u);
    EXPECT_EQ(r2->version, 2u);
    EXPECT_EQ((*db)->total_appended(), 3u);
    EXPECT_EQ((*db)->window_size(), 3u);
}

TEST(StreamingDbTest, CanonicalizesRows) {
    auto db = StreamingDatabase::Create(SmallConfig());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Append(Batch({{5, 1, 3, 1, 5}}, {0})).ok());
    const auto window = (*db)->SnapshotWindow();
    ASSERT_EQ(window->num_transactions(), 1u);
    EXPECT_EQ(window->transaction(0), (std::vector<ItemId>{1, 3, 5}));
}

TEST(StreamingDbTest, RejectsBadBatchesAtomically) {
    auto db = StreamingDatabase::Create(SmallConfig());
    ASSERT_TRUE(db.ok());
    // Mismatched arrays.
    EXPECT_FALSE((*db)->Append(Batch({{1}}, {0, 1})).ok());
    // Out-of-universe item in the second row: nothing is appended.
    EXPECT_FALSE((*db)->Append(Batch({{1}, {99}}, {0, 0})).ok());
    // Out-of-range label.
    EXPECT_FALSE((*db)->Append(Batch({{1}}, {7})).ok());
    EXPECT_EQ((*db)->total_appended(), 0u);
    EXPECT_EQ((*db)->version(), 0u);
}

TEST(StreamingDbTest, RejectionsAreInvalidArgumentNamingTheRow) {
    auto db = StreamingDatabase::Create(SmallConfig());
    ASSERT_TRUE(db.ok());
    const auto mismatch = (*db)->Append(Batch({{1}, {2}}, {0}));
    ASSERT_FALSE(mismatch.ok());
    EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
    const auto item = (*db)->Append(Batch({{1}, {2, 10}}, {0, 0}));
    ASSERT_FALSE(item.ok());
    EXPECT_EQ(item.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(item.status().message().find("row 1"), std::string::npos)
        << item.status();
    const auto label = (*db)->Append(Batch({{1}, {2}, {3}}, {0, 1, 2}));
    ASSERT_FALSE(label.ok());
    EXPECT_EQ(label.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(label.status().message().find("row 2"), std::string::npos)
        << label.status();
    // The last item id and label in range are accepted.
    EXPECT_TRUE((*db)->Append(Batch({{9}}, {1})).ok());
}

TEST(StreamingDbTest, SnapshotWindowIndexesItsRows) {
    // The snapshot is what a retrain mines, so its item and class covers
    // must be built over the window's rows.
    auto db = StreamingDatabase::Create(SmallConfig());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Append(Batch({{0, 1}, {1}, {0}}, {0, 1, 0})).ok());
    const auto snap = (*db)->SnapshotWindow();
    ASSERT_EQ(snap->num_transactions(), 3u);
    EXPECT_EQ(snap->SupportOf({1}), 2u);
    EXPECT_EQ(snap->SupportOf({0, 1}), 1u);
    EXPECT_EQ(snap->ItemCover(0).ToIndices(), (std::vector<std::uint32_t>{0, 2}));
    EXPECT_EQ(snap->ClassCover(1).ToIndices(), (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(snap->ClassCounts(), (std::vector<std::size_t>{2, 1}));
}

TEST(StreamingDbTest, WindowEvictsFifo) {
    auto db = StreamingDatabase::Create(SmallConfig());  // capacity 4
    ASSERT_TRUE(db.ok());
    for (ItemId i = 0; i < 4; ++i) {
        ASSERT_TRUE((*db)->Append(Batch({{i}}, {0})).ok());
    }
    ASSERT_TRUE((*db)->Append(Batch({{8}, {9}}, {1, 1})).ok());
    // The two oldest rows ({0}, {1}) left; the window keeps sequence order.
    EXPECT_EQ((*db)->window_size(), 4u);
    EXPECT_EQ((*db)->window_first_seq(), 2u);
    const auto window = (*db)->SnapshotWindow();
    ASSERT_EQ(window->num_transactions(), 4u);
    const std::vector<std::vector<ItemId>> want = {{2}, {3}, {8}, {9}};
    const std::vector<ClassLabel> want_labels = {0, 0, 1, 1};
    for (std::size_t t = 0; t < want.size(); ++t) {
        EXPECT_EQ(window->transaction(t), want[t]) << "row " << t;
        EXPECT_EQ(window->label(t), want_labels[t]) << "row " << t;
    }

    // A batch larger than the window evicts everything before its tail.
    ASSERT_TRUE((*db)->Append(Batch({{4}, {5}, {6}, {7}, {0}}, {0, 1, 0, 1, 0}))
                    .ok());
    EXPECT_EQ((*db)->window_first_seq(), 7u);
    const auto tail = (*db)->SnapshotWindow();
    ASSERT_EQ(tail->num_transactions(), 4u);
    EXPECT_EQ(tail->transaction(0), (std::vector<ItemId>{5}));
    EXPECT_EQ(tail->transaction(3), (std::vector<ItemId>{0}));
}

TEST(StreamingDbTest, EvictedTotalCountsEvictedRows) {
    auto& evicted = obs::Registry::Get().GetCounter("dfp.stream.evicted_total");
    auto& appended =
        obs::Registry::Get().GetCounter("dfp.stream.appended_total");
    const std::uint64_t evicted_mark = evicted.value();
    const std::uint64_t appended_mark = appended.value();

    auto db = StreamingDatabase::Create(SmallConfig());  // capacity 4
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Append(Batch({{0}, {1}, {2}}, {0, 0, 0})).ok());
    EXPECT_EQ(evicted.value() - evicted_mark, 0u);
    ASSERT_TRUE((*db)->Append(Batch({{3}, {4}}, {1, 1})).ok());
    EXPECT_EQ(evicted.value() - evicted_mark, 1u);
    // A batch larger than the window also evicts its own head.
    ASSERT_TRUE((*db)->Append(Batch({{5}, {6}, {7}, {8}, {9}, {0}},
                                    {0, 1, 0, 1, 0, 1}))
                    .ok());
    EXPECT_EQ(evicted.value() - evicted_mark, 7u);
    EXPECT_EQ(appended.value() - appended_mark, 11u);
    EXPECT_EQ((*db)->total_appended(), 11u);
    EXPECT_EQ((*db)->window_first_seq(), 7u);
}

TEST(StreamingDbTest, WindowSizeAndVersionGaugesTrackAppends) {
    auto& window_size = obs::Registry::Get().GetGauge("dfp.stream.window_size");
    auto& version = obs::Registry::Get().GetGauge("dfp.stream.version");

    auto db = StreamingDatabase::Create(SmallConfig());  // capacity 4
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Append(Batch({{0}, {1}, {2}}, {0, 0, 0})).ok());
    EXPECT_EQ(window_size.value(), 3.0);
    EXPECT_EQ(version.value(), 1.0);
    ASSERT_TRUE((*db)->Append(Batch({{3}, {4}}, {1, 1})).ok());
    EXPECT_EQ(window_size.value(), 4.0);  // capped at the window capacity
    EXPECT_EQ(version.value(), 2.0);

    // A rejected batch publishes nothing.
    EXPECT_FALSE((*db)->Append(Batch({{1}}, {2})).ok());
    EXPECT_EQ(window_size.value(), 4.0);
    EXPECT_EQ(version.value(), 2.0);
    EXPECT_EQ((*db)->version(), 2u);
}

TEST(StreamingDbTest, SnapshotWindowIsCachedBetweenAppends) {
    auto db = StreamingDatabase::Create(SmallConfig());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Append(Batch({{1}, {2}}, {0, 1})).ok());
    const auto snap1 = (*db)->SnapshotWindow();
    const auto snap2 = (*db)->SnapshotWindow();
    EXPECT_EQ(snap1.get(), snap2.get());
    EXPECT_EQ(snap1->num_transactions(), 2u);

    ASSERT_TRUE((*db)->Append(Batch({{3}}, {0})).ok());
    const auto snap3 = (*db)->SnapshotWindow();
    EXPECT_NE(snap1.get(), snap3.get());
    EXPECT_EQ(snap3->num_transactions(), 3u);
    // The old snapshot is still intact for whoever holds it.
    EXPECT_EQ(snap1->num_transactions(), 2u);
}

TEST(StreamingDbTest, SnapshotWindowMatchesContents) {
    auto db = StreamingDatabase::Create(SmallConfig());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Append(Batch({{0, 1}, {1, 2}, {2, 3}}, {0, 1, 0})).ok());
    const auto snap = (*db)->SnapshotWindow();
    ASSERT_EQ(snap->num_transactions(), 3u);
    EXPECT_EQ(snap->num_items(), 10u);
    EXPECT_EQ(snap->num_classes(), 2u);
    EXPECT_EQ(snap->transaction(1), (std::vector<ItemId>{1, 2}));
    EXPECT_EQ(snap->label(1), 1);
}

TEST(StreamingDbTest, WindowIsTheLastCapacityRowsAcrossStraddlingBatches) {
    // Batch sizes below, at and above the capacity, so batches straddle the
    // window edge in every way; after each append the window must be the
    // last window_capacity appended rows, in order.
    StreamConfig config = SmallConfig();
    config.window_capacity = 5;
    auto db = StreamingDatabase::Create(config);
    ASSERT_TRUE(db.ok());
    std::vector<std::vector<ItemId>> appended;
    std::vector<ClassLabel> appended_labels;
    ItemId next_item = 0;
    for (const std::size_t size : {1, 3, 2, 4, 5, 7, 1, 6, 2, 9}) {
        TransactionBatch batch;
        for (std::size_t r = 0; r < size; ++r) {
            const ItemId a = next_item++ % 10;
            std::vector<ItemId> txn = {a, static_cast<ItemId>((a + 3) % 10)};
            std::sort(txn.begin(), txn.end());
            const auto label = static_cast<ClassLabel>(appended.size() % 2);
            batch.transactions.push_back(txn);
            batch.labels.push_back(label);
            appended.push_back(txn);
            appended_labels.push_back(label);
        }
        ASSERT_TRUE((*db)->Append(std::move(batch)).ok());

        const std::size_t n = std::min<std::size_t>(5, appended.size());
        const std::size_t first = appended.size() - n;
        EXPECT_EQ((*db)->total_appended(), appended.size());
        EXPECT_EQ((*db)->window_size(), n);
        EXPECT_EQ((*db)->window_first_seq(), first);
        const auto window = (*db)->SnapshotWindow();
        ASSERT_EQ(window->num_transactions(), n);
        for (std::size_t t = 0; t < n; ++t) {
            EXPECT_EQ(window->transaction(t), appended[first + t])
                << "row " << t << " after " << appended.size() << " rows";
            EXPECT_EQ(window->label(t), appended_labels[first + t])
                << "row " << t << " after " << appended.size() << " rows";
        }
    }
}

}  // namespace
}  // namespace dfp::stream
