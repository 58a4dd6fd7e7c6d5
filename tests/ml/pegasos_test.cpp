#include "ml/svm/pegasos.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "testutil/binary_clouds.hpp"

namespace dfp {
namespace {

TEST(PegasosTest, SeparableBlobs) {
    std::vector<ClassLabel> y;
    const FeatureMatrix x = testutil::BinaryClouds(2, 100, 10, 0.6, 0.0, 1, &y);
    PegasosClassifier svm;
    ASSERT_TRUE(svm.Train(x, y, 2).ok());
    EXPECT_GT(svm.Accuracy(x, y), 0.97);
}

TEST(PegasosTest, MulticlassOneVsRest) {
    std::vector<ClassLabel> y;
    const FeatureMatrix x = testutil::BinaryClouds(3, 100, 12, 0.7, 0.05, 2, &y);
    PegasosClassifier svm;
    ASSERT_TRUE(svm.Train(x, y, 3).ok());
    EXPECT_GT(svm.Accuracy(x, y), 0.95);
}

TEST(PegasosTest, BinaryFeatureSpace) {
    // The framework's actual regime: sparse 0/1 features.
    Rng rng(3);
    FeatureMatrix x(500, 20);
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 500; ++i) {
        const ClassLabel c = i % 2;
        for (std::size_t f = 0; f < 20; ++f) {
            const double p = (f < 3 && c == 1) ? 0.8 : 0.2;
            if (rng.Bernoulli(p)) x.Set(i, f);
        }
        y.push_back(c);
    }
    PegasosClassifier svm;
    ASSERT_TRUE(svm.Train(x, y, 2).ok());
    EXPECT_GT(svm.Accuracy(x, y), 0.85);
}

TEST(PegasosTest, DeterministicForSeed) {
    std::vector<ClassLabel> y;
    const FeatureMatrix x = testutil::BinaryClouds(2, 50, 8, 0.5, 0.3, 4, &y);
    PegasosClassifier a;
    PegasosClassifier b;
    ASSERT_TRUE(a.Train(x, y, 2).ok());
    ASSERT_TRUE(b.Train(x, y, 2).ok());
    const PackedRows rows(x);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_EQ(a.Predict(rows.Row(i)), b.Predict(rows.Row(i)));
    }
}

TEST(PegasosTest, RejectsBadInput) {
    PegasosClassifier svm;
    EXPECT_FALSE(svm.Train(FeatureMatrix(), {}, 2).ok());
    FeatureMatrix x(2, 1);
    EXPECT_FALSE(svm.Train(x, {0}, 2).ok());
}

}  // namespace
}  // namespace dfp
