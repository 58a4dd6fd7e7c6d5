// Certificates for the SMO kernel-row cache.
//
// The cache claims *bit-identity*: cached rows hold exactly the values direct
// evaluation produces (BinaryKernelEval is deterministic and symmetric in
// its arguments), so the optimization trajectory — every alpha, the bias, the
// iteration count — must match at every cache capacity, from the 2-row
// minimum to every row resident. These tests compare with operator== on
// doubles, no tolerance.
#include "ml/svm/smo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ml/feature_matrix.hpp"
#include "obs/metrics.hpp"
#include "testutil/binary_clouds.hpp"

namespace dfp {
namespace {

// Two overlapping 0/1 clouds: enough overlap that SMO does real work (bound
// and free multipliers, many gradient updates).
void MakeClouds(std::size_t n_per_class, std::size_t dims, double p_foreign,
                std::uint64_t seed, FeatureMatrix* x, std::vector<int>* y) {
    std::vector<ClassLabel> labels;
    *x = testutil::BinaryClouds(2, n_per_class, dims, 0.5, p_foreign, seed,
                                &labels);
    *y = testutil::PlusMinus(labels);
}

SmoConfig RbfBase() {
    SmoConfig config;
    config.c = 1.0;
    config.kernel.type = KernelType::kRbf;
    config.kernel.gamma = 0.5;
    return config;
}

void ExpectBitIdentical(const SmoModel& a, const SmoModel& b,
                        const char* what) {
    ASSERT_EQ(a.alpha.size(), b.alpha.size()) << what;
    for (std::size_t i = 0; i < a.alpha.size(); ++i) {
        ASSERT_EQ(a.alpha[i], b.alpha[i]) << what << " alpha[" << i << "]";
    }
    EXPECT_EQ(a.bias, b.bias) << what;
    EXPECT_EQ(a.w, b.w) << what;
    EXPECT_EQ(a.iterations, b.iterations) << what;
    EXPECT_EQ(a.converged, b.converged) << what;
}

// cache_bytes that holds `rows` kernel rows of an n-row solve.
std::size_t RowsOf(std::size_t rows, std::size_t n) {
    return rows * n * sizeof(double);
}

TEST(SmoCacheTest, EveryCapacityIsBitIdentical) {
    FeatureMatrix x;
    std::vector<int> y;
    MakeClouds(/*n_per_class=*/120, /*dims=*/12, /*p_foreign=*/0.3, /*seed=*/31,
               &x, &y);
    const PackedRows rows(x);
    const std::size_t n = rows.rows();
    SmoConfig linear;  // all defaults: linear kernel
    for (const SmoConfig& base : {linear, RbfBase()}) {
        const char* kernel = base.kernel.type == KernelType::kLinear ? "linear" : "rbf";
        SmoConfig every = base;
        every.cache_bytes = RowsOf(n, n);
        auto reference = TrainSmo(rows, y, every);
        ASSERT_TRUE(reference.ok());
        ASSERT_TRUE(reference->converged) << kernel;
        for (const std::size_t capacity : {std::size_t{2}, std::size_t{5}}) {
            SmoConfig small = base;
            small.cache_bytes = RowsOf(capacity, n);
            auto model = TrainSmo(rows, y, small);
            ASSERT_TRUE(model.ok());
            ExpectBitIdentical(*model, *reference,
                               (std::string(kernel) + " " +
                                std::to_string(capacity) + " rows vs every row")
                                   .c_str());
        }
    }
}

TEST(SmoCacheTest, TinyCacheEvictsButStaysExact) {
    FeatureMatrix x;
    std::vector<int> y;
    MakeClouds(/*n_per_class=*/80, /*dims=*/10, /*p_foreign=*/0.35, /*seed=*/32,
               &x, &y);

    SmoConfig reference = RbfBase();
    reference.cache_bytes = RowsOf(x.rows(), x.rows());  // every row resident

    SmoConfig tiny = RbfBase();
    tiny.cache_bytes = 1;  // clamps to the 2-row minimum: constant eviction

    auto m_ref = TrainSmo(PackedRows(x), y, reference);
    auto m_tiny = TrainSmo(PackedRows(x), y, tiny);
    ASSERT_TRUE(m_ref.ok() && m_tiny.ok());
    ExpectBitIdentical(*m_tiny, *m_ref, "tiny cache vs every row");

    // A 2-row cache working over 160 examples must have evicted.
    auto& registry = obs::Registry::Get();
    EXPECT_GT(registry.GetCounter("dfp.svm.cache.evictions").value(), 0.0);
    EXPECT_GT(registry.GetCounter("dfp.svm.cache.misses").value(), 0.0);
}

TEST(SmoCacheTest, CacheCountersPublished) {
    FeatureMatrix x;
    std::vector<int> y;
    MakeClouds(/*n_per_class=*/60, /*dims=*/10, /*p_foreign=*/0.3, /*seed=*/33,
               &x, &y);
    auto& registry = obs::Registry::Get();
    const double hits_before =
        registry.GetCounter("dfp.svm.cache.hits").value();

    SmoConfig config = RbfBase();
    config.cache_bytes = 8 << 20;  // room for every row: all hits after fill
    auto model = TrainSmo(PackedRows(x), y, config);
    ASSERT_TRUE(model.ok());

    EXPECT_GT(registry.GetCounter("dfp.svm.cache.hits").value(), hits_before);
    EXPECT_GT(registry.GetGauge("dfp.svm.cache.rows").value(), 0.0);
}

}  // namespace
}  // namespace dfp
