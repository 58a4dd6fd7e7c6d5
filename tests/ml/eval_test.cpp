#include <gtest/gtest.h>

#include <algorithm>

#include "ml/eval/cross_validation.hpp"
#include "ml/eval/feature_filter.hpp"

namespace dfp {
namespace {

TEST(StratifiedFoldsTest, PartitionIsExactAndStratified) {
    std::vector<ClassLabel> y;
    for (int i = 0; i < 60; ++i) y.push_back(i < 40 ? 0 : 1);  // 40/20 split
    Rng rng(1);
    const auto folds = StratifiedFolds(y, 5, rng);
    ASSERT_EQ(folds.size(), 5u);
    std::vector<char> seen(60, 0);
    for (const auto& fold : folds) {
        EXPECT_EQ(fold.size(), 12u);
        std::size_t c1 = 0;
        for (std::size_t r : fold) {
            EXPECT_FALSE(seen[r]) << "row in two folds";
            seen[r] = 1;
            c1 += (y[r] == 1);
        }
        EXPECT_EQ(c1, 4u);  // 20 class-1 rows over 5 folds
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), 60);
    EXPECT_TRUE(StratifiedFolds(y, 0, rng).empty());
}

TEST(StratifiedFoldsTest, UnevenSizesDifferByAtMostOnePerClass) {
    std::vector<ClassLabel> y(25, 0);
    Rng rng(2);
    const auto folds = StratifiedFolds(y, 4, rng);
    std::size_t mn = 100;
    std::size_t mx = 0;
    for (const auto& f : folds) {
        mn = std::min(mn, f.size());
        mx = std::max(mx, f.size());
    }
    EXPECT_LE(mx - mn, 1u);
}

TEST(StratifiedFoldsTest, SameSeedSameFolds) {
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 60; ++i) y.push_back(static_cast<ClassLabel>(i % 3));
    Rng a(7), b(7), c(8);
    const auto folds = StratifiedFolds(y, 5, a);
    EXPECT_EQ(StratifiedFolds(y, 5, b), folds);
    EXPECT_NE(StratifiedFolds(y, 5, c), folds);
}

TEST(StratifiedFoldsTest, MoreFoldsThanRowsLeavesEmptyFolds) {
    const std::vector<ClassLabel> y = {0, 1, 0, 1};
    Rng rng(1);
    const auto folds = StratifiedFolds(y, 6, rng);
    ASSERT_EQ(folds.size(), 6u);
    std::vector<int> seen(y.size(), 0);
    std::size_t empty = 0;
    for (const auto& fold : folds) {
        EXPECT_LE(fold.size(), 1u);
        empty += fold.empty() ? 1 : 0;
        for (std::size_t r : fold) ++seen[r];
    }
    EXPECT_EQ(empty, 2u);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), 4);
}

TEST(FeatureFilterTest, RelevancesAndSelection) {
    // Item 0 predicts the class exactly; item 1 is uniform noise.
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 1}, {0}, {1}, {}}, {1, 1, 0, 0}, 2, 2);
    const auto rel = ItemRelevances(db, RelevanceMeasure::kInfoGain);
    ASSERT_EQ(rel.size(), 2u);
    EXPECT_NEAR(rel[0], 1.0, 1e-12);
    EXPECT_NEAR(rel[1], 0.0, 1e-12);

    const auto top1 = TopKItems(db, RelevanceMeasure::kInfoGain, 1);
    EXPECT_EQ(top1, (std::vector<std::size_t>{0}));
    const auto top5 = TopKItems(db, RelevanceMeasure::kInfoGain, 5);
    EXPECT_EQ(top5.size(), 2u);  // capped at the universe size
}

TEST(FeatureFilterTest, TopKBreaksTiesBySmallerId) {
    // Items 0 and 2 are both the class; item 1 is noise. The tie on relevance
    // keeps the smaller id.
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 1, 2}, {0, 2}, {1}, {}}, {1, 1, 0, 0}, 3, 2);
    const auto rel = ItemRelevances(db, RelevanceMeasure::kInfoGain);
    ASSERT_EQ(rel[0], rel[2]);
    EXPECT_EQ(TopKItems(db, RelevanceMeasure::kInfoGain, 1),
              (std::vector<std::size_t>{0}));
    EXPECT_EQ(TopKItems(db, RelevanceMeasure::kInfoGain, 2),
              (std::vector<std::size_t>{0, 2}));
}

}  // namespace
}  // namespace dfp
