#include "ml/dtree/c45.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"

namespace dfp {
namespace {

TEST(C45Test, LearnsSimpleThreshold) {
    // Feature 2 marks class 1; features 0, 1 and 3 are seeded noise. The tree
    // must pick feature 2 and split it at 0.5.
    Rng rng(3);
    FeatureMatrix x(40, 4);
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 40; ++i) {
        const ClassLabel c = i < 20 ? 0 : 1;
        for (std::size_t f : {0u, 1u, 3u}) {
            if (rng.Bernoulli(0.5)) x.Set(i, f);
        }
        if (c == 1) x.Set(i, 2);
        y.push_back(c);
    }
    C45Classifier tree;
    ASSERT_TRUE(tree.Train(x, y, 2).ok());
    EXPECT_DOUBLE_EQ(tree.Accuracy(x, y), 1.0);
    EXPECT_EQ(tree.num_leaves(), 2u);
    // Packed probes: bit f is feature f.
    std::vector<std::uint64_t> probe = {0b1011};
    EXPECT_EQ(tree.Predict(probe), 0u);
    probe = {0b0100};
    EXPECT_EQ(tree.Predict(probe), 1u);
}

TEST(C45Test, LearnsXorWithTwoLevels) {
    FeatureMatrix x(200, 2);
    std::vector<ClassLabel> y;
    Rng rng(1);
    for (std::size_t i = 0; i < 200; ++i) {
        const int a = static_cast<int>(rng.UniformInt(std::uint64_t{2}));
        const int b = static_cast<int>(rng.UniformInt(std::uint64_t{2}));
        if (a == 1) x.Set(i, 0);
        if (b == 1) x.Set(i, 1);
        y.push_back(static_cast<ClassLabel>(a ^ b));
    }
    C45Classifier tree;
    ASSERT_TRUE(tree.Train(x, y, 2).ok());
    EXPECT_DOUBLE_EQ(tree.Accuracy(x, y), 1.0);
    EXPECT_GE(tree.depth(), 2u);
}

TEST(C45Test, PureDataYieldsSingleLeaf) {
    FeatureMatrix x(10, 2);
    std::vector<ClassLabel> y(10, 1);
    C45Classifier tree;
    ASSERT_TRUE(tree.Train(x, y, 2).ok());
    EXPECT_EQ(tree.num_leaves(), 1u);
    EXPECT_EQ(tree.depth(), 0u);
    const std::vector<std::uint64_t> probe = {0};
    EXPECT_EQ(tree.Predict(probe), 1u);
}

TEST(C45Test, FeatureWithoutGainIsNotSplitOn) {
    // Both sides of the feature hold the classes half and half: no
    // information gain, so no split even with pruning off.
    FeatureMatrix x(8, 1);
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 8; ++i) {
        if (i >= 4) x.Set(i, 0);
        y.push_back(static_cast<ClassLabel>(i % 2));
    }
    C45Config config;
    config.prune = false;
    C45Classifier tree(config);
    ASSERT_TRUE(tree.Train(x, y, 2).ok());
    EXPECT_EQ(tree.num_leaves(), 1u);
    EXPECT_EQ(tree.depth(), 0u);
}

TEST(C45Test, PruningShrinksTreeOnNoise) {
    // Pure-noise labels: an unpruned tree overfits, a pruned one collapses.
    Rng rng(5);
    FeatureMatrix x(300, 10);
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 300; ++i) {
        for (std::size_t f = 0; f < 10; ++f) {
            if (rng.Bernoulli(0.5)) x.Set(i, f);
        }
        y.push_back(static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2})));
    }
    C45Config no_prune;
    no_prune.prune = false;
    C45Classifier raw(no_prune);
    ASSERT_TRUE(raw.Train(x, y, 2).ok());

    C45Classifier pruned;  // default prunes
    ASSERT_TRUE(pruned.Train(x, y, 2).ok());
    EXPECT_LT(pruned.num_leaves(), raw.num_leaves());
}

TEST(C45Test, MinLeafRespected) {
    // Feature i < 20 marks row i alone; feature 20 + k marks the block of
    // rows 5k..5k+4. Alternating labels: only the singleton splits separate
    // them, and min_leaf = 5 forbids those.
    FeatureMatrix x(20, 24);
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 20; ++i) {
        x.Set(i, i);
        x.Set(i, 20 + i / 5);
        y.push_back(static_cast<ClassLabel>(i % 2));
    }
    C45Config config;
    config.min_leaf = 1;
    config.prune = false;
    C45Classifier memorizer(config);
    ASSERT_TRUE(memorizer.Train(x, y, 2).ok());
    EXPECT_DOUBLE_EQ(memorizer.Accuracy(x, y), 1.0);
    EXPECT_GT(memorizer.num_leaves(), 4u);

    config.min_leaf = 5;
    C45Classifier tree(config);
    ASSERT_TRUE(tree.Train(x, y, 2).ok());
    // The tree must stay tiny rather than memorizing.
    EXPECT_LE(tree.num_leaves(), 4u);
}

TEST(C45Test, MulticlassSplits) {
    // Three classes coded on two features: 00, 10, 11.
    FeatureMatrix x(30, 2);
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 30; ++i) {
        const std::size_t c = i / 10;
        if (c >= 1) x.Set(i, 0);
        if (c == 2) x.Set(i, 1);
        y.push_back(static_cast<ClassLabel>(c));
    }
    C45Classifier tree;
    ASSERT_TRUE(tree.Train(x, y, 3).ok());
    EXPECT_DOUBLE_EQ(tree.Accuracy(x, y), 1.0);
}

TEST(C45Test, RejectsBadInput) {
    C45Classifier tree;
    EXPECT_FALSE(tree.Train(FeatureMatrix(), {}, 2).ok());
    FeatureMatrix x(2, 1);
    EXPECT_FALSE(tree.Train(x, {0}, 2).ok());
}

TEST(PessimisticErrorTest, BasicProperties) {
    // Upper bound exceeds the observed rate and shrinks with more data.
    EXPECT_GT(PessimisticErrorRate(1, 10, 0.25), 0.1);
    EXPECT_GT(PessimisticErrorRate(1, 10, 0.25), PessimisticErrorRate(10, 100, 0.25));
    // Zero errors still get a positive pessimistic estimate.
    EXPECT_GT(PessimisticErrorRate(0, 10, 0.25), 0.0);
    // Capped at 1.
    EXPECT_LE(PessimisticErrorRate(10, 10, 0.25), 1.0);
    // More confidence (smaller cf) → larger estimate.
    EXPECT_GT(PessimisticErrorRate(2, 20, 0.1), PessimisticErrorRate(2, 20, 0.4));
}

}  // namespace
}  // namespace dfp
