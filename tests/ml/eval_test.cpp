#include <gtest/gtest.h>

#include <algorithm>

#include "ml/dtree/c45.hpp"
#include "ml/eval/cross_validation.hpp"
#include "ml/eval/feature_filter.hpp"
#include "ml/eval/metrics.hpp"

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

TEST(CrossValidateTest, PerfectlyLearnableData) {
    FeatureMatrix x(40, 1);  // the feature marks class 1
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 40; ++i) {
        if (i >= 20) x.Set(i, 0);
        y.push_back(i < 20 ? 0 : 1);
    }
    const auto cv = CrossValidate(
        x, y, 2, []() { return std::make_unique<C45Classifier>(); }, 5, 3);
    EXPECT_EQ(cv.fold_accuracies.size(), 5u);
    EXPECT_GT(cv.mean_accuracy, 0.9);
}

TEST(ConfusionMatrixTest, CountsAndAccuracy) {
    ConfusionMatrix cm(2);
    cm.Add(0, 0);
    cm.Add(0, 0);
    cm.Add(0, 1);
    cm.Add(1, 1);
    EXPECT_EQ(cm.total(), 4u);
    EXPECT_EQ(cm.At(0, 1), 1u);
    EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.75);
    EXPECT_DOUBLE_EQ(cm.RecallOf(0), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(cm.PrecisionOf(1), 0.5);
}

TEST(ConfusionMatrixTest, MacroF1) {
    ConfusionMatrix cm(2);
    // Perfect classifier.
    for (int i = 0; i < 5; ++i) {
        cm.Add(0, 0);
        cm.Add(1, 1);
    }
    EXPECT_DOUBLE_EQ(cm.MacroF1(), 1.0);
}

TEST(ConfusionMatrixTest, EmptyIsSafe) {
    ConfusionMatrix cm(3);
    EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(cm.MacroF1(), 0.0);
}

TEST(AccuracyOfTest, Basics) {
    EXPECT_DOUBLE_EQ(AccuracyOf({0, 1, 1}, {0, 1, 0}), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(AccuracyOf({}, {}), 0.0);
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
