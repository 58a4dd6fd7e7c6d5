#include "ml/nb/naive_bayes.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"

namespace dfp {
namespace {

TEST(NaiveBayesTest, LearnsClassConditionalBits) {
    // Feature 0 on for class 1, feature 1 on for class 0 (with noise).
    Rng rng(1);
    FeatureMatrix x(400, 2);
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 400; ++i) {
        const ClassLabel c = i % 2;
        if (rng.Bernoulli(c == 1 ? 0.9 : 0.1)) x.Set(i, 0);
        if (rng.Bernoulli(c == 0 ? 0.9 : 0.1)) x.Set(i, 1);
        y.push_back(c);
    }
    NaiveBayesClassifier nb;
    ASSERT_TRUE(nb.Train(x, y, 2).ok());
    EXPECT_GT(nb.Accuracy(x, y), 0.9);
    // Packed probes: bit f is feature f.
    std::vector<std::uint64_t> probe = {0b01};
    EXPECT_EQ(nb.Predict(probe), 1u);
    probe = {0b10};
    EXPECT_EQ(nb.Predict(probe), 0u);
}

TEST(NaiveBayesTest, PriorDominatesWithoutEvidence) {
    FeatureMatrix x(10, 1);
    std::vector<ClassLabel> y = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1};
    NaiveBayesClassifier nb;
    ASSERT_TRUE(nb.Train(x, y, 2).ok());
    const std::vector<std::uint64_t> probe = {0};
    EXPECT_EQ(nb.Predict(probe), 0u);  // 8:2 prior
}

TEST(NaiveBayesTest, SmoothingHandlesUnseenCombination) {
    // Feature always on in training; an off value at test time must not
    // produce -inf for every class.
    FeatureMatrix x(4, 1);
    for (std::size_t i = 0; i < 4; ++i) x.Set(i, 0);
    const std::vector<ClassLabel> y = {0, 0, 1, 1};
    NaiveBayesClassifier nb;
    ASSERT_TRUE(nb.Train(x, y, 2).ok());
    const std::vector<std::uint64_t> probe = {0};
    const ClassLabel c = nb.Predict(probe);
    EXPECT_TRUE(c == 0 || c == 1);
}

TEST(NaiveBayesTest, ThreeClasses) {
    Rng rng(2);
    FeatureMatrix x(600, 3);
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 600; ++i) {
        const ClassLabel c = i % 3;
        for (std::size_t f = 0; f < 3; ++f) {
            if (rng.Bernoulli(f == c ? 0.85 : 0.15)) x.Set(i, f);
        }
        y.push_back(c);
    }
    NaiveBayesClassifier nb;
    ASSERT_TRUE(nb.Train(x, y, 3).ok());
    // Bayes-optimal accuracy for these class-conditionals is ≈ 0.80.
    EXPECT_GT(nb.Accuracy(x, y), 0.75);
}

TEST(NaiveBayesTest, RejectsBadInput) {
    NaiveBayesClassifier nb;
    EXPECT_FALSE(nb.Train(FeatureMatrix(), {}, 2).ok());
    FeatureMatrix x(2, 1);
    EXPECT_FALSE(nb.Train(x, {0}, 2).ok());
}

}  // namespace
}  // namespace dfp
