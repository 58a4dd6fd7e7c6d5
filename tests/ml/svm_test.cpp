#include "ml/svm/svm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "core/feature_space.hpp"
#include "ml/svm/smo.hpp"
#include "testutil/binary_clouds.hpp"
#include "testutil/dense_reference.hpp"

namespace dfp {
namespace {

// Two 0/1 clouds over 12 features; p_foreign = 0 makes them separable.
void MakeBlobs(std::size_t n_per_class, double p_foreign, std::uint64_t seed,
               FeatureMatrix* x, std::vector<int>* y_pm,
               std::vector<ClassLabel>* y_cl) {
    *x = testutil::BinaryClouds(2, n_per_class, 12, 0.6, p_foreign, seed, y_cl);
    *y_pm = testutil::PlusMinus(*y_cl);
}

TEST(SmoTest, SeparableDataClassifiedPerfectly) {
    FeatureMatrix x;
    std::vector<int> y;
    std::vector<ClassLabel> yc;
    MakeBlobs(40, 0.0, 1, &x, &y, &yc);
    SmoConfig config;
    config.c = 10.0;
    const PackedRows rows(x);
    auto model = TrainSmo(rows, y, config);
    ASSERT_TRUE(model.ok()) << model.status();
    for (std::size_t i = 0; i < x.rows(); ++i) {
        EXPECT_GT(static_cast<double>(y[i]) * model->Decision(rows.Row(i)), 0.0);
    }
}

TEST(SmoTest, KktConditionsSatisfied) {
    FeatureMatrix x;
    std::vector<int> y;
    std::vector<ClassLabel> yc;
    // Overlapping clouds. The solver stops once the maximal violating pair's
    // gap is below tol, which bounds every KKT violation by tol;
    // SmoConvergenceTest holds that over a grid of clouds and seeds.
    MakeBlobs(50, 0.2, 2, &x, &y, &yc);
    SmoConfig config;
    config.c = 1.0;
    auto model = TrainSmo(PackedRows(x), y, config);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(model->converged);
    // A loose bound; SmoConvergenceTest holds the tight one (≤ tol).
    EXPECT_LT(MaxKktViolation(*model, PackedRows(x), y, config.c), 10 * config.tol + 0.05);
}

TEST(SmoTest, DualConstraintHolds) {
    FeatureMatrix x;
    std::vector<int> y;
    std::vector<ClassLabel> yc;
    MakeBlobs(40, 0.4, 3, &x, &y, &yc);
    SmoConfig config;
    auto model = TrainSmo(PackedRows(x), y, config);
    ASSERT_TRUE(model.ok());
    double sum = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_GE(model->alpha[i], -1e-12);
        EXPECT_LE(model->alpha[i], config.c + 1e-12);
        sum += model->alpha[i] * y[i];
    }
    EXPECT_NEAR(sum, 0.0, 1e-6);
}

TEST(SmoTest, LinearWeightsAgreeWithSvExpansion) {
    FeatureMatrix x;
    std::vector<int> y;
    std::vector<ClassLabel> yc;
    MakeBlobs(30, 0.25, 4, &x, &y, &yc);
    const PackedRows rows(x);
    auto model = TrainSmo(rows, y, SmoConfig{});
    ASSERT_TRUE(model.ok());
    ASSERT_FALSE(model->w.empty());
    // f(x) via w must equal f(x) via the SV expansion.
    SmoModel expansion = *model;
    expansion.w.clear();
    for (std::size_t i = 0; i < x.rows(); i += 7) {
        EXPECT_NEAR(model->Decision(rows.Row(i)), expansion.Decision(rows.Row(i)),
                    1e-6);
    }
}

TEST(SmoTest, RejectsBadInput) {
    const PackedRows x(FeatureMatrix(2, 1));
    EXPECT_FALSE(TrainSmo(x, {1, 0}, SmoConfig{}).ok());   // label not ±1
    EXPECT_FALSE(TrainSmo(x, {1}, SmoConfig{}).ok());      // size mismatch
    SmoConfig bad;
    bad.c = -1.0;
    EXPECT_FALSE(TrainSmo(x, {1, -1}, bad).ok());
    EXPECT_FALSE(TrainSmo(PackedRows(FeatureMatrix()), {}, SmoConfig{}).ok());
}

TEST(SmoTest, OneClassGivesFiniteConstantSign) {
    // With one label there is no violating pair: α stays 0 and ρ comes from
    // the one finite side of the bound interval, so the decision is finite
    // and carries that label's sign.
    FeatureMatrix x(3, 2);
    x.Set(0, 0);
    x.Set(1, 1);
    const PackedRows rows(x);
    for (const int label : {1, -1}) {
        const auto model = TrainSmo(rows, std::vector<int>(3, label), SmoConfig{});
        ASSERT_TRUE(model.ok());
        EXPECT_TRUE(model->converged);
        EXPECT_TRUE(std::isfinite(model->bias));
        for (std::size_t i = 0; i < rows.rows(); ++i) {
            EXPECT_GT(label * model->Decision(rows.Row(i)), 0.0) << label;
        }
    }
}

TEST(SmoTest, RbfSolvesXor) {
    // XOR is not linearly separable; RBF must nail it.
    FeatureMatrix x(4, 2);  // rows 00, 11, 01, 10
    x.Set(1, 0);
    x.Set(1, 1);
    x.Set(2, 1);
    x.Set(3, 0);
    const std::vector<int> y = {-1, -1, 1, 1};
    SmoConfig config;
    config.c = 100.0;
    config.kernel.type = KernelType::kRbf;
    config.kernel.gamma = 2.0;
    const PackedRows rows(x);
    auto model = TrainSmo(rows, y, config);
    ASSERT_TRUE(model.ok());
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GT(static_cast<double>(y[i]) * model->Decision(rows.Row(i)), 0.0)
            << "XOR corner " << i;
    }
}

TEST(KernelTest, Values) {
    const std::vector<double> a = {1.0, 2.0};
    const std::vector<double> b = {3.0, -1.0};
    KernelParams linear;
    EXPECT_DOUBLE_EQ(testutil::KernelEval(linear, a, b), 1.0);
    KernelParams rbf;
    rbf.type = KernelType::kRbf;
    rbf.gamma = 0.1;
    EXPECT_NEAR(testutil::KernelEval(rbf, a, b), std::exp(-0.1 * (4.0 + 9.0)), 1e-12);
    EXPECT_DOUBLE_EQ(testutil::KernelEval(rbf, a, a), 1.0);
    KernelParams poly;
    poly.type = KernelType::kPolynomial;
    poly.gamma = 1.0;
    poly.coef0 = 1.0;
    poly.degree = 2;
    EXPECT_DOUBLE_EQ(testutil::KernelEval(poly, a, b), 4.0);  // (1+1)^2
}

TEST(KernelTest, BinaryKernelEqualsDenseBitForBit) {
    // 0/1 rows: |a ∧ b| = 2, |a| = 4, |b| = 3, so ‖a − b‖² = 3.
    const std::vector<double> a = {1, 1, 0, 1, 1, 0};
    const std::vector<double> b = {1, 0, 1, 1, 0, 0};
    KernelParams params;
    for (KernelType type :
         {KernelType::kLinear, KernelType::kRbf, KernelType::kPolynomial}) {
        params.type = type;
        params.gamma = 0.37;
        params.coef0 = 0.5;
        EXPECT_EQ(BinaryKernelEval(params, 2, 4, 3), testutil::KernelEval(params, a, b))
            << KernelName(params);
    }
}

TEST(SvmClassifierTest, BinaryViaClassifierInterface) {
    FeatureMatrix x;
    std::vector<int> y;
    std::vector<ClassLabel> yc;
    MakeBlobs(40, 0.05, 5, &x, &y, &yc);
    SvmClassifier svm;
    ASSERT_TRUE(svm.Train(x, yc, 2).ok());
    EXPECT_GT(svm.Accuracy(x, yc), 0.97);
}

TEST(SvmClassifierTest, ThreeClassOneVsOne) {
    std::vector<ClassLabel> y;
    const FeatureMatrix x = testutil::BinaryClouds(3, 30, 12, 0.7, 0.05, 6, &y);
    SvmClassifier svm;
    ASSERT_TRUE(svm.Train(x, y, 3).ok());
    EXPECT_GT(svm.Accuracy(x, y), 0.95);
}

TEST(SvmClassifierTest, MissingClassHandled) {
    // Class 2 absent from training: pairwise machines degrade gracefully.
    FeatureMatrix x(4, 1);  // the feature marks class 1
    x.Set(2, 0);
    x.Set(3, 0);
    const std::vector<ClassLabel> y = {0, 0, 1, 1};
    SvmClassifier svm;
    ASSERT_TRUE(svm.Train(x, y, 3).ok());
    const PackedRows rows(x);
    EXPECT_EQ(svm.Predict(rows.Row(0)), 0u);
    EXPECT_EQ(svm.Predict(rows.Row(2)), 1u);
}

TEST(SvmClassifierTest, LearnsOnTransformedTransactions) {
    // The pipeline's regime: I ∪ Fs columns from FeatureSpace::Transform of a
    // transaction database, items 0–2 and the pattern {0, 1} marking class 1.
    Rng rng(3);
    std::vector<std::vector<ItemId>> rows;
    std::vector<ClassLabel> labels;
    for (std::size_t i = 0; i < 500; ++i) {
        const ClassLabel c = i % 2;
        std::vector<ItemId> row;
        for (ItemId item = 0; item < 20; ++item) {
            if (rng.Bernoulli((item < 3 && c == 1) ? 0.8 : 0.2)) row.push_back(item);
        }
        rows.push_back(std::move(row));
        labels.push_back(c);
    }
    const auto db = TransactionDatabase::FromTransactions(std::move(rows),
                                                          std::move(labels), 20, 2);
    Pattern pair;
    pair.items = {0, 1};
    const FeatureSpace space = FeatureSpace::Build(db.num_items(), {pair});
    const FeatureMatrix x = space.Transform(db);
    ASSERT_EQ(x.cols(), 21u);
    SvmClassifier svm;
    ASSERT_TRUE(svm.Train(x, db.labels(), 2).ok());
    EXPECT_GT(svm.Accuracy(x, db.labels()), 0.85);
}

TEST(SvmClassifierTest, RetrainingSavesIdenticalBytes) {
    std::vector<ClassLabel> y;
    const FeatureMatrix x = testutil::BinaryClouds(3, 50, 8, 0.5, 0.3, 4, &y);
    std::string saved[2];
    for (std::string& bytes : saved) {
        SvmClassifier svm;
        ASSERT_TRUE(svm.Train(x, y, 3).ok());
        std::ostringstream out;
        ASSERT_TRUE(svm.SaveModel(out).ok());
        bytes = out.str();
    }
    ASSERT_FALSE(saved[0].empty());
    EXPECT_EQ(saved[0], saved[1]);
}

TEST(SvmClassifierTest, RejectsBadInput) {
    SvmClassifier svm;
    EXPECT_EQ(svm.Train(FeatureMatrix(), {}, 2).code(),
              StatusCode::kFailedPrecondition);
    FeatureMatrix x(2, 1);
    EXPECT_EQ(svm.Train(x, {0, 0}, 1).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dfp
