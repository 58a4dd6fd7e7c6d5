#include "data/transaction_db.hpp"

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

namespace dfp {
namespace {

// 4 transactions over 5 items, 2 classes.
TransactionDatabase Toy() {
    return TransactionDatabase::FromTransactions(
        {{0, 1, 2}, {0, 2}, {1, 3}, {0, 1, 4}}, {0, 0, 1, 1}, 5, 2);
}

TEST(TransactionDbTest, BasicShape) {
    const auto db = Toy();
    EXPECT_EQ(db.num_transactions(), 4u);
    EXPECT_EQ(db.num_items(), 5u);
    EXPECT_EQ(db.num_classes(), 2u);
}

TEST(TransactionDbTest, ItemCoversAndSupports) {
    const auto db = Toy();
    EXPECT_EQ(db.ItemSupport(0), 3u);
    EXPECT_EQ(db.ItemSupport(1), 3u);
    EXPECT_EQ(db.ItemSupport(2), 2u);
    EXPECT_EQ(db.ItemSupport(3), 1u);
    EXPECT_EQ(db.ItemSupport(4), 1u);
    EXPECT_EQ(db.ItemCover(0).ToIndices(), (std::vector<std::uint32_t>{0, 1, 3}));
}

TEST(TransactionDbTest, ClassCovers) {
    const auto db = Toy();
    EXPECT_EQ(db.ClassCover(0).ToIndices(), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(db.ClassCover(1).ToIndices(), (std::vector<std::uint32_t>{2, 3}));
    EXPECT_EQ(db.ClassCounts(), (std::vector<std::size_t>{2, 2}));
}

// ClassCounts() is cached when the indexes are built; it must always equal a
// fresh recount of the labels, on every construction path.
std::vector<std::size_t> RecountLabels(const TransactionDatabase& db) {
    std::vector<std::size_t> counts(db.num_classes(), 0);
    for (ClassLabel y : db.labels()) ++counts[y];
    return counts;
}

TEST(TransactionDbTest, CachedClassCountsEqualLabelRecount) {
    const auto db = TransactionDatabase::FromTransactions(
        {{0}, {1}, {0, 1}, {2}, {1, 2}, {0}}, {2, 0, 2, 1, 2, 0}, 3, 3);
    EXPECT_EQ(db.ClassCounts(), RecountLabels(db));
    EXPECT_EQ(db.ClassCounts(), (std::vector<std::size_t>{2, 1, 3}));

    const auto subset = db.Subset({4, 0, 3});
    EXPECT_EQ(subset.ClassCounts(), RecountLabels(subset));
    EXPECT_EQ(subset.ClassCounts(), (std::vector<std::size_t>{0, 1, 2}));

    const auto none = db.Subset({});
    EXPECT_EQ(none.ClassCounts(), (std::vector<std::size_t>{0, 0, 0}));

    const TransactionDatabase empty;
    EXPECT_TRUE(empty.ClassCounts().empty());
    const auto built_empty =
        TransactionDatabase::FromTransactions({}, {}, 4, 2);
    EXPECT_EQ(built_empty.ClassCounts(), (std::vector<std::size_t>{0, 0}));
}

// Every construction path must give ItemCover(i) ∧ ClassCover(c) counts.
void ExpectItemClassCountsEqualCoverCounts(const TransactionDatabase& db) {
    const std::size_t k = db.num_classes();
    const std::vector<std::size_t>& counts = db.ItemClassCounts();
    ASSERT_EQ(counts.size(), db.num_items() * k);
    for (ItemId i = 0; i < db.num_items(); ++i) {
        for (ClassLabel c = 0; c < k; ++c) {
            EXPECT_EQ(counts[i * k + c], db.ItemCover(i).AndCount(db.ClassCover(c)))
                << "item " << i << " class " << c;
        }
    }
}

TransactionDatabase ThreeWordDb() {
    // 130 rows put the covers on three words.
    std::vector<std::vector<ItemId>> txns;
    std::vector<ClassLabel> labels;
    for (std::size_t t = 0; t < 130; ++t) {
        std::vector<ItemId> txn;
        for (ItemId i = 0; i < 6; ++i) {
            if ((t * 5 + i * 3 + t / 7) % 4 == 0) txn.push_back(i);
        }
        txns.push_back(txn);
        labels.push_back(static_cast<ClassLabel>((t * 7 / 3) % 3));
    }
    return TransactionDatabase::FromTransactions(txns, labels, 6, 3);
}

TEST(TransactionDbTest, ItemClassCountsEqualCoverCounts) {
    const auto db = ThreeWordDb();
    ExpectItemClassCountsEqualCoverCounts(db);
    EXPECT_EQ(db.ItemClassCounts()[0] + db.ItemClassCounts()[1] +
                  db.ItemClassCounts()[2],
              db.ItemSupport(0));

    ExpectItemClassCountsEqualCoverCounts(db.Subset({129, 0, 64, 64, 5, 70}));
    for (ClassLabel c = 0; c < 3; ++c) {
        const auto only = db.FilterByClass(c);
        ExpectItemClassCountsEqualCoverCounts(only);
        for (ItemId i = 0; i < 6; ++i) {
            EXPECT_EQ(only.ItemClassCounts()[i * 3 + c], only.ItemSupport(i));
        }
    }

    const auto none = db.Subset({});
    ExpectItemClassCountsEqualCoverCounts(none);
    EXPECT_EQ(none.ItemClassCounts()[5 * 3 + 2], 0u);

    const TransactionDatabase empty;
    EXPECT_EQ(empty.num_items(), 0u);
    ExpectItemClassCountsEqualCoverCounts(empty);
}

TEST(TransactionDbTest, ItemClassCountsAreCountedOnceAndShared) {
    const auto db = ThreeWordDb();
    // Counted on first use and kept: later calls and copies read the same
    // table, and a copy counted first serves the original.
    const TransactionDatabase copy = db;
    const std::vector<std::size_t>& first = copy.ItemClassCounts();
    EXPECT_EQ(&db.ItemClassCounts(), &first);
    EXPECT_EQ(&copy.ItemClassCounts(), &first);
    ExpectItemClassCountsEqualCoverCounts(db);

    // Several threads asking for a fresh database's table at once all get
    // the one table.
    const auto fresh = ThreeWordDb();
    std::vector<const std::vector<std::size_t>*> seen(4, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&fresh, &seen, t] { seen[t] = &fresh.ItemClassCounts(); });
    }
    for (std::thread& thread : threads) thread.join();
    for (const auto* table : seen) EXPECT_EQ(table, seen[0]);
    ExpectItemClassCountsEqualCoverCounts(fresh);
}

TEST(TransactionDbTest, CoverOfItemset) {
    const auto db = Toy();
    EXPECT_EQ(db.SupportOf({0, 1}), 2u);  // rows 0 and 3
    EXPECT_EQ(db.SupportOf({0, 1, 2}), 1u);
    EXPECT_EQ(db.SupportOf({3, 4}), 0u);
    EXPECT_EQ(db.SupportOf({}), 4u);  // empty itemset covers everything
}

TEST(TransactionDbTest, ClassCountsOfCover) {
    const auto db = Toy();
    const auto counts = db.ClassCountsOf(db.CoverOf({0, 1}));
    EXPECT_EQ(counts, (std::vector<std::size_t>{1, 1}));
}

TEST(TransactionDbTest, TransactionsSortedAndDeduped) {
    const auto db = TransactionDatabase::FromTransactions(
        {{2, 0, 2, 1}}, {0}, 3, 1);
    EXPECT_EQ(db.transaction(0), (std::vector<ItemId>{0, 1, 2}));
}

TEST(TransactionDbTest, FilterByClass) {
    const auto db = Toy();
    const auto c1 = db.FilterByClass(1);
    EXPECT_EQ(c1.num_transactions(), 2u);
    EXPECT_EQ(c1.transaction(0), (std::vector<ItemId>{1, 3}));
    EXPECT_EQ(c1.num_items(), 5u);       // item universe unchanged
    EXPECT_EQ(c1.num_classes(), 2u);     // label space unchanged
    EXPECT_EQ(c1.label(0), 1u);
}

TEST(TransactionDbTest, SubsetKeepsOrder) {
    const auto db = Toy();
    const auto sub = db.Subset({3, 0});
    EXPECT_EQ(sub.num_transactions(), 2u);
    EXPECT_EQ(sub.transaction(0), (std::vector<ItemId>{0, 1, 4}));
    EXPECT_EQ(sub.label(1), 0u);
}

TEST(TransactionDbTest, Contains) {
    // Transaction t holds an itemset iff bit t of the itemset's cover is set.
    const auto db = Toy();
    EXPECT_TRUE(db.CoverOf({0, 2}).Test(0));
    EXPECT_FALSE(db.CoverOf({0, 1}).Test(1));
    EXPECT_TRUE(db.CoverOf({}).Test(2));
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        for (const auto& items : std::vector<std::vector<ItemId>>{
                 {0}, {1, 3}, {0, 1, 4}, {2, 4}}) {
            const auto& txn = db.transaction(t);
            EXPECT_EQ(db.CoverOf(items).Test(t),
                      std::includes(txn.begin(), txn.end(), items.begin(),
                                    items.end()))
                << "row " << t;
        }
    }
}

TEST(TransactionDbTest, ClassPriors) {
    const auto db = Toy();
    EXPECT_EQ(db.ClassPriors(), (std::vector<double>{0.5, 0.5}));
}

TEST(TransactionDbTest, ItemNamesFallback) {
    const auto db = Toy();
    EXPECT_EQ(db.ItemName(3), "item3");
    const auto named = TransactionDatabase::FromTransactions(
        {{0}}, {0}, 1, 1, {"color=red"});
    EXPECT_EQ(named.ItemName(0), "color=red");
}

}  // namespace
}  // namespace dfp
