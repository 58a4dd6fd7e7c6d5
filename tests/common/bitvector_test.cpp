#include "common/bitvector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace dfp {
namespace {

// Words start on a 64-byte boundary (an empty vector has no block at all).
void ExpectAligned(const BitVector& v, const char* path) {
    if (v.words().empty()) return;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.words().data()) % 64, 0u)
        << path << ", " << v.size() << " bits";
}

TEST(BitVectorTest, EveryStoragePathIsCacheLineAligned) {
    for (const std::size_t bits : {1u, 63u, 64u, 65u, 100u, 511u, 512u, 513u,
                                   3196u, 20000u}) {
        BitVector a(bits);
        ExpectAligned(a, "construction");
        a.Set(bits - 1);
        BitVector copy(a);
        ExpectAligned(copy, "copy construction");
        EXPECT_EQ(copy, a);
        BitVector assigned(1);
        assigned = a;  // grows
        ExpectAligned(assigned, "copy assignment (grow)");
        BitVector shrunk(40000);
        shrunk = a;
        ExpectAligned(shrunk, "copy assignment (shrink)");
        BitVector moved(std::move(copy));
        ExpectAligned(moved, "move construction");
        BitVector move_assigned(7);
        move_assigned = std::move(moved);
        ExpectAligned(move_assigned, "move assignment");
        EXPECT_EQ(move_assigned, a);

        BitVector b(bits);
        b.Fill();
        BitVector scratch;  // default-constructed: no words until assigned
        scratch.AssignAnd(a, b);
        ExpectAligned(scratch, "AssignAnd (grow from empty)");
        EXPECT_EQ(scratch, a);
        BitVector wide(40000);
        wide.AssignAnd(a, b);
        ExpectAligned(wide, "AssignAnd (shrink)");
        BitVector narrow(1);
        narrow.AssignAndNot(b, a);
        ExpectAligned(narrow, "AssignAndNot (grow)");
        EXPECT_EQ(narrow.Count(), bits - 1);
        ExpectAligned(a & b, "operator&");
        ExpectAligned(a | b, "operator|");
    }
    // Reallocating a vector of covers moves every cover.
    std::vector<BitVector> covers;
    for (std::size_t i = 0; i < 40; ++i) {
        covers.emplace_back(64 * i + 3);
        for (const BitVector& v : covers) ExpectAligned(v, "vector growth");
    }
}

TEST(BitVectorTest, StartsEmpty) {
    BitVector v(100);
    EXPECT_EQ(v.size(), 100u);
    EXPECT_EQ(v.Count(), 0u);
    for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.Test(i));
}

TEST(BitVectorTest, SetAcrossWordEdges) {
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

TEST(BitVectorTest, AndOr) {
    BitVector a(10);
    BitVector b(10);
    a.Set(1);
    a.Set(2);
    b.Set(2);
    b.Set(3);
    EXPECT_EQ((a & b).ToIndices(), (std::vector<std::uint32_t>{2}));
    EXPECT_EQ((a | b).ToIndices(), (std::vector<std::uint32_t>{1, 2, 3}));
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

TEST(BitVectorTest, Equality) {
    BitVector a(64);
    BitVector b(64);
    a.Set(10);
    b.Set(10);
    EXPECT_EQ(a, b);
    b.Set(11);
    EXPECT_NE(a, b);
}

TEST(BitVectorTest, EqualityComparesTheUniverse) {
    // Same set bits over different universes are different vectors.
    BitVector a(64);
    BitVector b(65);
    EXPECT_NE(a, b);
    a.Set(3);
    b.Set(3);
    EXPECT_NE(a, b);
    EXPECT_EQ(a.ToIndices(), b.ToIndices());
}

TEST(BitVectorTest, ToIndicesMarksBitsAcrossWordEdges) {
    BitVector v(193);
    const std::vector<std::uint32_t> bits = {0, 1, 63, 64, 127, 128, 191, 192};
    for (const std::uint32_t b : bits) v.Set(b);
    EXPECT_EQ(v.ToIndices(), bits);
    EXPECT_EQ(v.Count(), bits.size());
    v.Fill();
    const auto all = v.ToIndices();
    ASSERT_EQ(all.size(), 193u);
    for (std::uint32_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(BitVectorTest, EmptyVector) {
    BitVector v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.Count(), 0u);
    EXPECT_TRUE(v.ToIndices().empty());
}

}  // namespace
}  // namespace dfp
