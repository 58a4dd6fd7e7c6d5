// Certificates for the SMO kernel-row cache and shrinking.
//
// The cache claims *bit-identity*: cached rows hold exactly the values direct
// evaluation produces (BinaryKernelEval is deterministic and symmetric in
// its arguments), so the optimization trajectory — every alpha, the bias, the
// iteration count — must match with the cache on, off, or replaced by the
// full Gram matrix. These tests compare with operator== on doubles, no
// tolerance. Shrinking legitimately reorders float updates, so it is held to
// a convergence-quality bar instead.
#include "ml/svm/smo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ml/feature_matrix.hpp"
#include "obs/metrics.hpp"
#include "testutil/binary_clouds.hpp"

namespace dfp {
namespace {

// Two overlapping 0/1 clouds: enough overlap that SMO does real work (bound
// and non-bound multipliers, many TakeStep error refreshes).
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
    EXPECT_EQ(a.iterations, b.iterations) << what;
    EXPECT_EQ(a.converged, b.converged) << what;
}

TEST(SmoCacheTest, CacheOnOffAndGramAreBitIdentical) {
    FeatureMatrix x;
    std::vector<int> y;
    MakeClouds(/*n_per_class=*/120, /*dims=*/12, /*p_foreign=*/0.3, /*seed=*/31,
               &x, &y);

    SmoConfig gram = RbfBase();
    gram.gram_limit = 10'000;  // full Gram matrix

    SmoConfig cached = RbfBase();
    cached.gram_limit = 0;  // force the on-demand path
    cached.cache_bytes = 1 << 20;

    SmoConfig direct = RbfBase();
    direct.gram_limit = 0;
    direct.cache_bytes = 0;  // no cache: every row evaluated in place

    auto m_gram = TrainSmo(PackedRows(x), y, gram);
    auto m_cached = TrainSmo(PackedRows(x), y, cached);
    auto m_direct = TrainSmo(PackedRows(x), y, direct);
    ASSERT_TRUE(m_gram.ok() && m_cached.ok() && m_direct.ok());
    ASSERT_TRUE(m_gram->converged);

    ExpectBitIdentical(*m_cached, *m_gram, "cached vs gram");
    ExpectBitIdentical(*m_direct, *m_gram, "direct vs gram");
}

TEST(SmoCacheTest, TinyCacheEvictsButStaysExact) {
    FeatureMatrix x;
    std::vector<int> y;
    MakeClouds(/*n_per_class=*/80, /*dims=*/10, /*p_foreign=*/0.35, /*seed=*/32,
               &x, &y);

    SmoConfig reference = RbfBase();
    reference.gram_limit = 0;
    reference.cache_bytes = 0;

    SmoConfig tiny = RbfBase();
    tiny.gram_limit = 0;
    tiny.cache_bytes = 1;  // clamps to the 2-row minimum: constant eviction

    auto m_ref = TrainSmo(PackedRows(x), y, reference);
    auto m_tiny = TrainSmo(PackedRows(x), y, tiny);
    ASSERT_TRUE(m_ref.ok() && m_tiny.ok());
    ExpectBitIdentical(*m_tiny, *m_ref, "tiny cache vs direct");

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
    config.gram_limit = 0;
    config.cache_bytes = 8 << 20;  // room for every row: all hits after fill
    auto model = TrainSmo(PackedRows(x), y, config);
    ASSERT_TRUE(model.ok());

    EXPECT_GT(registry.GetCounter("dfp.svm.cache.hits").value(), hits_before);
    EXPECT_GT(registry.GetGauge("dfp.svm.cache.rows").value(), 0.0);
}

TEST(SmoCacheTest, ShrinkingConvergesToSameQuality) {
    FeatureMatrix x;
    std::vector<int> y;
    MakeClouds(/*n_per_class=*/150, /*dims=*/12, /*p_foreign=*/0.3, /*seed=*/34,
               &x, &y);

    SmoConfig plain = RbfBase();
    plain.gram_limit = 0;
    SmoConfig shrunk = plain;
    shrunk.shrinking = true;

    const PackedRows rows(x);
    auto m_plain = TrainSmo(rows, y, plain);
    auto m_shrunk = TrainSmo(rows, y, shrunk);
    ASSERT_TRUE(m_plain.ok() && m_shrunk.ok());
    ASSERT_TRUE(m_plain->converged);
    ASSERT_TRUE(m_shrunk->converged);

    // Shrinking reorders float updates, so no bit-identity claim — but both
    // solves must end KKT-clean to the same tolerance...
    EXPECT_LT(MaxKktViolation(*m_shrunk, rows, y, shrunk.c),
              10 * shrunk.tol + 0.05);
    // ...and agree on nearly every training-set prediction.
    std::size_t disagree = 0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
        const bool a = m_plain->Decision(rows.Row(i)) > 0.0;
        const bool b = m_shrunk->Decision(rows.Row(i)) > 0.0;
        if (a != b) ++disagree;
    }
    EXPECT_LE(disagree, x.rows() / 100 + 1);
}

TEST(SmoCacheTest, ShrinkingOffIsDefaultAndBitIdenticalToCacheOff) {
    // With shrinking off (the default), the active-set plumbing must be
    // invisible: the linear-kernel path (primal weights, no row reads) gives
    // a quick end-to-end check that defaults didn't drift.
    FeatureMatrix x;
    std::vector<int> y;
    MakeClouds(/*n_per_class=*/50, /*dims=*/8, /*p_foreign=*/0.25, /*seed=*/35,
               &x, &y);
    SmoConfig a;  // all defaults: linear kernel
    SmoConfig b;
    b.cache_bytes = 0;
    auto ma = TrainSmo(PackedRows(x), y, a);
    auto mb = TrainSmo(PackedRows(x), y, b);
    ASSERT_TRUE(ma.ok() && mb.ok());
    ExpectBitIdentical(*ma, *mb, "default vs cache-off (linear)");
}

}  // namespace
}  // namespace dfp
