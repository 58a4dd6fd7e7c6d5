// SMO non-convergence detection: an exhausted pair-update budget must be
// detected (not silently shipped as "trained"), the classifier must keep the
// iterate and the guard log must record the event.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ml/svm/smo.hpp"
#include "ml/svm/svm.hpp"
#include "obs/metrics.hpp"
#include "testutil/binary_clouds.hpp"

namespace dfp {
namespace {

// XOR of two bits plus four noise bits: not linearly separable, hard for an
// RBF SMO given only a handful of pair updates.
void MakeXor(std::size_t n, std::uint64_t seed, FeatureMatrix* x,
             std::vector<int>* y_pm, std::vector<ClassLabel>* y_cl) {
    Rng rng(seed);
    *x = FeatureMatrix(n, 6);
    y_pm->clear();
    y_cl->clear();
    for (std::size_t i = 0; i < n; ++i) {
        const bool a = rng.Bernoulli(0.5);
        const bool b = rng.Bernoulli(0.5);
        if (a) x->Set(i, 0);
        if (b) x->Set(i, 1);
        for (std::size_t f = 2; f < 6; ++f) {
            if (rng.Bernoulli(0.3)) x->Set(i, f);
        }
        const bool pos = a == b;
        y_pm->push_back(pos ? 1 : -1);
        y_cl->push_back(pos ? 1 : 0);
    }
}

SmoConfig HardRbfTinySteps() {
    SmoConfig config;
    config.kernel.type = KernelType::kRbf;
    config.kernel.gamma = 0.5;
    config.max_steps = 3;  // nowhere near enough for XOR
    return config;
}

TEST(SmoGuardTest, ExhaustedStepBudgetDetectedAsNonConvergence) {
    FeatureMatrix x;
    std::vector<int> y;
    std::vector<ClassLabel> yc;
    MakeXor(40, 1, &x, &y, &yc);
    const auto model = TrainSmo(PackedRows(x), y, HardRbfTinySteps());
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_FALSE(model->converged);
    EXPECT_EQ(model->breach, BudgetBreach::kNone);  // budget ≠ step exhaustion
    EXPECT_LE(model->iterations, 3u);
}

TEST(SmoGuardTest, ClassifierKeepsIterateAndRecordsNonConvergence) {
    FeatureMatrix x;
    std::vector<int> y;
    std::vector<ClassLabel> yc;
    MakeXor(40, 2, &x, &y, &yc);
    GuardLog::Get().Clear();
    SvmClassifier svm(HardRbfTinySteps());
    const Status st = svm.Train(x, yc, 2);
    ASSERT_TRUE(st.ok()) << st;

    bool saw_nonconverged = false;
    for (const GuardEvent& e : GuardLog::Get().Snapshot()) {
        if (e.kind == "smo_nonconverged") saw_nonconverged = true;
    }
    EXPECT_TRUE(saw_nonconverged);
    const auto counters = obs::Registry::Get().Snapshot().counters;
    const auto it = counters.find("dfp.guard.smo_nonconverged");
    ASSERT_NE(it, counters.end());
    EXPECT_GE(it->second, 1u);

    // The one pair (class 0 = +1, class 1 = −1) predicts with the SMO
    // iterate itself: the sign of its decision value on every row.
    const PackedRows rows(x);
    std::vector<int> pair_labels;
    for (ClassLabel c : yc) pair_labels.push_back(c == 0 ? 1 : -1);
    const auto iterate = TrainSmo(rows, pair_labels, HardRbfTinySteps());
    ASSERT_TRUE(iterate.ok()) << iterate.status();
    ASSERT_FALSE(iterate->converged);
    for (std::size_t i = 0; i < rows.rows(); ++i) {
        const ClassLabel want = iterate->Decision(rows.Row(i)) >= 0.0 ? 0 : 1;
        EXPECT_EQ(svm.Predict(rows.Row(i)), want) << "row " << i;
    }
}

TEST(SmoGuardTest, ConvergedSolveDoesNotFallBack) {
    // Easy separable blobs with a generous step budget: no guard events.
    std::vector<ClassLabel> yc;
    const FeatureMatrix x = testutil::BinaryClouds(2, 20, 8, 0.6, 0.0, 4, &yc);
    GuardLog::Get().Clear();
    SvmClassifier svm;
    ASSERT_TRUE(svm.Train(x, yc, 2).ok());
    EXPECT_EQ(GuardLog::Get().size(), 0u);
}

TEST(SmoGuardTest, CancellationPropagatesFromSolver) {
    FeatureMatrix x;
    std::vector<int> y;
    std::vector<ClassLabel> yc;
    MakeXor(40, 5, &x, &y, &yc);
    CancelToken token;
    token.CancelAfterChecks(1);
    SmoConfig config;
    config.budget.cancel = &token;
    const auto model = TrainSmo(PackedRows(x), y, config);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(model->breach, BudgetBreach::kCancelled);

    token.Reset();
    token.CancelAfterChecks(1);
    SvmClassifier svm(config);
    const Status st = svm.Train(x, yc, 2);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

TEST(SmoGuardTest, ExpiredDeadlineKeepsPartialIterate) {
    FeatureMatrix x;
    std::vector<int> y;
    std::vector<ClassLabel> yc;
    MakeXor(100, 6, &x, &y, &yc);  // first sweep alone exceeds the stride
    SmoConfig config;
    config.kernel.type = KernelType::kRbf;
    config.budget.time_budget_ms = 0.0;
    const auto model = TrainSmo(PackedRows(x), y, config);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(model->breach, BudgetBreach::kDeadline);
    EXPECT_FALSE(model->converged);

    // The classifier keeps the truncated iterate instead of failing.
    SvmClassifier svm(config);
    const Status st = svm.Train(x, yc, 2);
    EXPECT_TRUE(st.ok()) << st;
}

}  // namespace
}  // namespace dfp
