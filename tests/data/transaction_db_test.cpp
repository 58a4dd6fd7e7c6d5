#include "data/transaction_db.hpp"

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
    const auto db = Toy();
    EXPECT_TRUE(db.Contains(0, {0, 2}));
    EXPECT_FALSE(db.Contains(1, {0, 1}));
    EXPECT_TRUE(db.Contains(2, {}));
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
