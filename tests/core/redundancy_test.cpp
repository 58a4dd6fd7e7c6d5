#include "core/redundancy.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "testutil/naive_mmrfs.hpp"

namespace dfp {
namespace {

BitVector Bits(std::size_t size, std::initializer_list<std::size_t> on) {
    BitVector v(size);
    for (std::size_t i : on) v.Set(i);
    return v;
}

// The counted kernel, with each cover's popcount supplied as callers cache it.
double Jaccard(const BitVector& a, const BitVector& b) {
    return CoverJaccard(a, a.Count(), b, b.Count());
}

TEST(JaccardTest, IdenticalCovers) {
    const auto a = Bits(10, {1, 2, 3});
    EXPECT_DOUBLE_EQ(Jaccard(a, a), 1.0);
}

TEST(JaccardTest, DisjointCovers) {
    EXPECT_DOUBLE_EQ(Jaccard(Bits(10, {1, 2}), Bits(10, {3, 4})), 0.0);
}

TEST(JaccardTest, PartialOverlap) {
    // |∩| = 1, |∪| = 3.
    EXPECT_NEAR(Jaccard(Bits(10, {1, 2}), Bits(10, {2, 3})), 1.0 / 3.0, 1e-12);
}

TEST(JaccardTest, BothEmpty) {
    EXPECT_DOUBLE_EQ(Jaccard(Bits(10, {}), Bits(10, {})), 0.0);
}

// |A∨B| = |A| + |B| − |A∧B| is the same integer as the union's count, so the
// one-pass kernel must equal the two-pass reference bit for bit, at any
// density and across word boundaries (sizes up to 5000 bits = 79 words).
TEST(JaccardTest, CountedKernelMatchesTwoPassReferenceBitwise) {
    Rng rng(17);
    for (const std::size_t size : {1, 63, 64, 65, 200, 4097, 5000}) {
        for (const double density : {0.0, 0.05, 0.5, 0.95, 1.0}) {
            for (int trial = 0; trial < 8; ++trial) {
                BitVector a(size);
                BitVector b(size);
                for (std::size_t i = 0; i < size; ++i) {
                    if (rng.Bernoulli(density)) a.Set(i);
                    if (rng.Bernoulli(density)) b.Set(i);
                }
                EXPECT_EQ(Jaccard(a, b), testutil::CoverJaccard(a, b))
                    << "size " << size << " density " << density;
                EXPECT_EQ(Jaccard(a, b), Jaccard(b, a));
            }
        }
    }
}

TEST(RedundancyTest, Equation9Value) {
    Pattern a;
    Pattern b;
    a.cover = Bits(10, {0, 1, 2, 3});
    b.cover = Bits(10, {2, 3, 4, 5});
    // Jaccard = 2/6; min(S) = 0.4.
    EXPECT_NEAR(testutil::Redundancy(a, b, 0.9, 0.4), (2.0 / 6.0) * 0.4,
                1e-12);
}

TEST(RedundancyTest, NonClosedPatternFullyRedundantWithClosure) {
    // Same cover (the non-closed/closure relationship) → redundancy equals the
    // weaker relevance entirely: nothing marginal is left.
    Pattern sub;
    Pattern closed;
    sub.cover = Bits(10, {1, 4, 7});
    closed.cover = Bits(10, {1, 4, 7});
    EXPECT_DOUBLE_EQ(testutil::Redundancy(sub, closed, 0.35, 0.35), 0.35);
    EXPECT_DOUBLE_EQ(Jaccard(sub.cover, closed.cover), 1.0);
}

TEST(RedundancyTest, SymmetricInArguments) {
    Pattern a;
    Pattern b;
    a.cover = Bits(12, {0, 1, 2});
    b.cover = Bits(12, {2, 3});
    EXPECT_DOUBLE_EQ(testutil::Redundancy(a, b, 0.5, 0.7),
                     testutil::Redundancy(b, a, 0.7, 0.5));
}

}  // namespace
}  // namespace dfp
