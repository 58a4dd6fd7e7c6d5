#include "common/bitvector.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace dfp {
namespace {

TEST(BitVectorTest, StartsEmpty) {
    BitVector v(100);
    EXPECT_EQ(v.size(), 100u);
    EXPECT_EQ(v.Count(), 0u);
    for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.Test(i));
}

TEST(BitVectorTest, SetClearTest) {
    BitVector v(130);
    v.Set(0);
    v.Set(63);
    v.Set(64);
    v.Set(129);
    EXPECT_TRUE(v.Test(0));
    EXPECT_TRUE(v.Test(63));
    EXPECT_TRUE(v.Test(64));
    EXPECT_TRUE(v.Test(129));
    EXPECT_FALSE(v.Test(1));
    EXPECT_EQ(v.Count(), 4u);
    v.Clear(63);
    EXPECT_FALSE(v.Test(63));
    EXPECT_EQ(v.Count(), 3u);
}

TEST(BitVectorTest, FillRespectsTailMask) {
    BitVector v(70);
    v.Fill();
    EXPECT_EQ(v.Count(), 70u);
    for (std::size_t i = 0; i < 70; ++i) EXPECT_TRUE(v.Test(i));
}

TEST(BitVectorTest, FillOnWordBoundary) {
    BitVector v(128);
    v.Fill();
    EXPECT_EQ(v.Count(), 128u);
}

TEST(BitVectorTest, ResetClearsAll) {
    BitVector v(70);
    v.Fill();
    v.Reset();
    EXPECT_EQ(v.Count(), 0u);
}

TEST(BitVectorTest, AndOrXor) {
    BitVector a(10);
    BitVector b(10);
    a.Set(1);
    a.Set(2);
    b.Set(2);
    b.Set(3);
    EXPECT_EQ((a & b).ToIndices(), (std::vector<std::uint32_t>{2}));
    EXPECT_EQ((a | b).ToIndices(), (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ((a ^ b).ToIndices(), (std::vector<std::uint32_t>{1, 3}));
}

TEST(BitVectorTest, AndNot) {
    BitVector a(10);
    BitVector b(10);
    a.Set(1);
    a.Set(2);
    b.Set(2);
    a.AndNot(b);
    EXPECT_EQ(a.ToIndices(), (std::vector<std::uint32_t>{1}));
}

TEST(BitVectorTest, CountingWithoutMaterializing) {
    Rng rng(11);
    BitVector a(300);
    BitVector b(300);
    for (std::size_t i = 0; i < 300; ++i) {
        if (rng.Bernoulli(0.4)) a.Set(i);
        if (rng.Bernoulli(0.4)) b.Set(i);
    }
    EXPECT_EQ(a.AndCount(b), (a & b).Count());
    EXPECT_EQ(a.AndNotCount(b), BitVector(a).AndNot(b).Count());
}

TEST(BitVectorTest, SubsetAndDisjoint) {
    BitVector small(100);
    BitVector big(100);
    BitVector other(100);
    small.Set(5);
    small.Set(70);
    big.Set(5);
    big.Set(70);
    big.Set(90);
    other.Set(1);
    EXPECT_TRUE(small.IsSubsetOf(big));
    EXPECT_FALSE(big.IsSubsetOf(small));
    EXPECT_TRUE(small.IsSubsetOf(small));
    EXPECT_TRUE(small.IsDisjointWith(other));
    EXPECT_FALSE(small.IsDisjointWith(big));
}

TEST(BitVectorTest, ForEachVisitsAscending) {
    BitVector v(200);
    v.Set(3);
    v.Set(64);
    v.Set(199);
    std::vector<std::uint32_t> seen;
    v.ForEach([&seen](std::uint32_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{3, 64, 199}));
}

TEST(BitVectorTest, EqualityAndHash) {
    BitVector a(64);
    BitVector b(64);
    a.Set(10);
    b.Set(10);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.Hash(), b.Hash());
    b.Set(11);
    EXPECT_NE(a, b);
    EXPECT_NE(a.Hash(), b.Hash());
}

TEST(BitVectorTest, ToStringMarksBits) {
    BitVector v(5);
    v.Set(0);
    v.Set(4);
    EXPECT_EQ(v.ToString(), "10001");
}

TEST(BitVectorTest, EmptyVector) {
    BitVector v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.Count(), 0u);
    EXPECT_TRUE(v.ToIndices().empty());
}

}  // namespace
}  // namespace dfp
