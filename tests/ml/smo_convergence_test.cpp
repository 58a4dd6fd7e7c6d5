// Convergence certificates for the SMO solver: every solve on the seeded
// overlapping 0/1 clouds ends converged and KKT-clean to tol, linear and RBF,
// and the linear-SVM pipelines behind the golden bundles record no
// non-converged pair. Overlapping clouds hold duplicate rows with opposite
// labels, so pairs with η = K_ii + K_jj − 2K_ij = 0 occur throughout.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/budget.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/svm/smo.hpp"
#include "ml/svm/svm.hpp"
#include "testutil/binary_clouds.hpp"

namespace dfp {
namespace {

class SmoConvergenceTest
    : public ::testing::TestWithParam<std::tuple<KernelType, double>> {};

TEST_P(SmoConvergenceTest, EverySeedConvergesKktClean) {
    const auto [kernel, p_foreign] = GetParam();
    SmoConfig config;
    config.kernel.type = kernel;
    config.kernel.gamma = 0.5;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::vector<ClassLabel> labels;
        const PackedRows x(
            testutil::BinaryClouds(2, 50, 12, 0.6, p_foreign, seed, &labels));
        const std::vector<int> y = testutil::PlusMinus(labels);
        const auto model = TrainSmo(x, y, config);
        ASSERT_TRUE(model.ok()) << model.status();
        EXPECT_TRUE(model->converged);
        EXPECT_LE(MaxKktViolation(*model, x, y, config.c), config.tol);
    }
}

// p_foreign = 0.35 holds seed 16, whose η = 0 pairs keep a first-order
// (max-|E1 − E2|) working-set choice from converging: it stops with a KKT
// violation of 1.328.
INSTANTIATE_TEST_SUITE_P(
    Clouds, SmoConvergenceTest,
    ::testing::Combine(::testing::Values(KernelType::kLinear, KernelType::kRbf),
                       ::testing::Values(0.0, 0.1, 0.2, 0.35, 0.5)),
    [](const ::testing::TestParamInfo<SmoConvergenceTest::ParamType>& info) {
        const bool linear = std::get<0>(info.param) == KernelType::kLinear;
        return std::string(linear ? "Linear" : "Rbf") + "_p" +
               std::to_string(static_cast<int>(std::get<1>(info.param) * 100 + 0.5));
    });

// The golden-bundle linear-SVM pipelines (tests/golden), seeds 1–10: 2–4
// classes, every one-vs-one pair solved to tol.
TEST(SmoPipelineConvergenceTest, GoldenLinearPipelinesRecordNoNonConvergence) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        SyntheticSpec spec;
        spec.rows = 360;
        spec.classes = 2 + seed % 3;
        spec.attributes = 9;
        spec.arity = 3;
        spec.seed = seed;
        const Dataset data = GenerateSynthetic(spec);
        const auto encoder = ItemEncoder::FromSchema(data);
        const TransactionDatabase all = TransactionDatabase::FromDataset(data, *encoder);
        std::vector<std::size_t> train_rows;
        for (std::size_t r = 0; r < all.num_transactions(); ++r) {
            if (r % 3 != 2) train_rows.push_back(r);
        }
        PipelineConfig config;
        config.miner.min_sup_rel = 0.1;
        config.miner.max_pattern_len = 4;
        config.mmrfs.coverage_delta = 2;
        PatternClassifierPipeline pipeline(config);
        GuardLog::Get().Clear();
        ASSERT_TRUE(pipeline
                        .Train(all.Subset(train_rows),
                               std::make_unique<SvmClassifier>(SmoConfig{}))
                        .ok());
        for (const GuardEvent& e : GuardLog::Get().Snapshot()) {
            EXPECT_NE(e.kind, "smo_nonconverged") << e.stage << " " << e.value;
        }
    }
}

}  // namespace
}  // namespace dfp
