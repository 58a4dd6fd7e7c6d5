#include "core/feature_space.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

namespace dfp {
namespace {

// The columns set in the packed row Encode writes.
std::vector<std::size_t> SetColumns(std::span<const std::uint64_t> row) {
    std::vector<std::size_t> cols;
    ForEachRowBit(row, [&cols](std::size_t c) { cols.push_back(c); });
    return cols;
}

std::vector<std::size_t> Encoded(const FeatureSpace& fs,
                                 const std::vector<ItemId>& transaction) {
    PatternMatchIndex::Scratch scratch;
    const std::span<const std::uint64_t> row = fs.Encode(transaction, &scratch);
    EXPECT_EQ(row.size(), PackedWords(fs.dim()));
    return SetColumns(row);
}

TransactionDatabase Toy() {
    return TransactionDatabase::FromTransactions(
        {{0, 1, 2}, {0, 2}, {1, 3}}, {0, 0, 1}, 4, 2);
}

std::vector<Pattern> TwoPatterns(const TransactionDatabase& db) {
    std::vector<Pattern> patterns(2);
    patterns[0].items = {0, 2};
    patterns[1].items = {1, 3};
    AttachMetadata(db, &patterns);
    return patterns;
}

TEST(FeatureSpaceTest, DimensionIsItemsPlusPatterns) {
    const auto db = Toy();
    const auto fs = FeatureSpace::Build(4, TwoPatterns(db));
    EXPECT_EQ(fs.num_items(), 4u);
    EXPECT_EQ(fs.num_patterns(), 2u);
    EXPECT_EQ(fs.dim(), 6u);
}

TEST(FeatureSpaceTest, SingletonPatternsDropped) {
    const auto db = Toy();
    auto patterns = TwoPatterns(db);
    Pattern single;
    single.items = {2};
    patterns.push_back(single);
    const auto fs = FeatureSpace::Build(4, patterns);
    EXPECT_EQ(fs.num_patterns(), 2u);  // the singleton duplicates item 2
}

TEST(FeatureSpaceTest, EncodeSetsItemAndPatternBits) {
    const auto db = Toy();
    const auto fs = FeatureSpace::Build(4, TwoPatterns(db));
    EXPECT_EQ(Encoded(fs, {0, 1, 2}), (std::vector<std::size_t>{0, 1, 2, 4}));
    EXPECT_EQ(Encoded(fs, {1, 3}), (std::vector<std::size_t>{1, 3, 5}));
    EXPECT_EQ(Encoded(fs, {3}), (std::vector<std::size_t>{3}));
    // One scratch reused across calls leaves nothing behind.
    PatternMatchIndex::Scratch scratch;
    fs.Encode({0, 1, 2}, &scratch);
    EXPECT_EQ(SetColumns(fs.Encode({3}, &scratch)), (std::vector<std::size_t>{3}));
}

TEST(FeatureSpaceTest, TransformMatchesRowwiseEncode) {
    const auto db = Toy();
    const auto fs = FeatureSpace::Build(4, TwoPatterns(db));
    const FeatureMatrix x = fs.Transform(db);
    ASSERT_EQ(x.rows(), 3u);
    ASSERT_EQ(x.cols(), 6u);
    const PackedRows rows(x);
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        EXPECT_EQ(SetColumns(rows.Row(t)), Encoded(fs, db.transaction(t)))
            << "row " << t;
    }
}

TEST(FeatureSpaceTest, ItemsOnly) {
    const auto fs = FeatureSpace::ItemsOnly(5);
    EXPECT_EQ(fs.dim(), 5u);
    EXPECT_EQ(fs.num_patterns(), 0u);
    EXPECT_EQ(Encoded(fs, {1, 4}), (std::vector<std::size_t>{1, 4}));
}

TEST(FeatureSpaceTest, UnseenItemsIgnored) {
    // A transaction may carry item ids beyond the training universe (e.g. a
    // test-fold value bin never seen in training); they must be ignored.
    const auto fs = FeatureSpace::ItemsOnly(3);
    EXPECT_EQ(Encoded(fs, {1, 7}), (std::vector<std::size_t>{1}));
}

}  // namespace
}  // namespace dfp
