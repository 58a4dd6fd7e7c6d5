// Certifies the word-array popcount kernel: every body this host can run must
// return the bit-by-bit count and the bit-by-bit answer of the early-exit
// AndAny/AndNotAny tests, and the BitVector operations must keep the bits
// past size() clear, since the whole-word kernels count them too.
#include "common/popcount.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bitvector.hpp"
#include "common/rng.hpp"

namespace dfp {
namespace {

BitVector RandomBits(std::size_t size, double density, Rng& rng) {
    BitVector v(size);
    for (std::size_t i = 0; i < size; ++i) {
        if (rng.Bernoulli(density)) v.Set(i);
    }
    return v;
}

// The three reference counts over bits [first, size), one Test(i) at a time.
struct BitCounts {
    std::size_t a = 0;
    std::size_t and_b = 0;
    std::size_t and_not_b = 0;
};

BitCounts CountBitByBit(const BitVector& a, const BitVector& b,
                        std::size_t first) {
    BitCounts counts;
    for (std::size_t i = first; i < a.size(); ++i) {
        if (!a.Test(i)) continue;
        ++counts.a;
        if (b.Test(i)) {
            ++counts.and_b;
        } else {
            ++counts.and_not_b;
        }
    }
    return counts;
}

// Every length from 0 to 1100 bits (0 to 18 words, so every tail length of
// the 8-word step), at densities 0, 1, ~0.5 and sparse; b is always ~0.5 so
// the AND and AND-NOT counts are not trivial. Each count is also taken from
// word offsets 1..8, the unaligned starts PackedRows rows have.
void ExpectBodyMatchesBitByBit(const PopcountBody& body) {
    Rng rng(23);
    for (const double density : {0.0, 1.0, 0.5, 0.02}) {
        for (std::size_t size = 0; size <= 1100; ++size) {
            const BitVector a = RandomBits(size, density, rng);
            const BitVector b = RandomBits(size, 0.5, rng);
            const std::size_t words = a.words().size();
            for (std::size_t first = 0; first <= std::min<std::size_t>(words, 8);
                 ++first) {
                const BitCounts want = CountBitByBit(a, b, first * 64);
                const std::uint64_t* wa = a.words().data() + first;
                const std::uint64_t* wb = b.words().data() + first;
                const std::size_t n = words - first;
                SCOPED_TRACE(testing::Message()
                             << body.name << " size " << size << " density "
                             << density << " first word " << first);
                ASSERT_EQ(body.popcount(wa, n), want.a);
                ASSERT_EQ(body.and_popcount(wa, wb, n), want.and_b);
                ASSERT_EQ(body.and_not_popcount(wa, wb, n), want.and_not_b);
            }
        }
    }
}

// Bit-by-bit answers of the two early-exit tests over bits [first, size).
struct BitAnys {
    bool and_b = false;
    bool and_not_b = false;
};

BitAnys AnyBitByBit(const BitVector& a, const BitVector& b, std::size_t first) {
    BitAnys anys;
    for (std::size_t i = first; i < a.size(); ++i) {
        if (!a.Test(i)) continue;
        if (b.Test(i)) {
            anys.and_b = true;
        } else {
            anys.and_not_b = true;
        }
    }
    return anys;
}

void ExpectAnysAt(const PopcountBody& body, const BitVector& a,
                  const BitVector& b, std::size_t first) {
    const BitAnys want = AnyBitByBit(a, b, first * 64);
    const std::uint64_t* wa = a.words().data() + first;
    const std::uint64_t* wb = b.words().data() + first;
    const std::size_t n = a.words().size() - first;
    ASSERT_EQ(body.and_any(wa, wb, n), want.and_b);
    ASSERT_EQ(body.and_not_any(wa, wb, n), want.and_not_b);
}

// Lengths 0 to 1100 bits from word offsets 0..8, a at densities 0, 0.02, 0.5
// and 1 against b random at ~0.5, equal to a, and a's complement (so both
// answers occur at every length, not only "yes at the first word").
void ExpectAnysMatchBitByBit(const PopcountBody& body) {
    Rng rng(29);
    for (const double density : {0.0, 0.02, 0.5, 1.0}) {
        for (std::size_t size = 0; size <= 1100; ++size) {
            const BitVector a = RandomBits(size, density, rng);
            BitVector complement(size);
            complement.Fill();
            complement.AndNot(a);
            const std::size_t words = a.words().size();
            for (const BitVector& b : {RandomBits(size, 0.5, rng), a, complement}) {
                for (std::size_t first = 0;
                     first <= std::min<std::size_t>(words, 8); ++first) {
                    SCOPED_TRACE(testing::Message()
                                 << body.name << " size " << size << " density "
                                 << density << " first word " << first);
                    ExpectAnysAt(body, a, b, first);
                }
            }
        }
    }
}

// One witness bit and nothing else: for every word count up to 18 (every
// block-and-tail split of the 8-word step) and every word position, each
// answer turns on exactly one bit, so every early exit and the final "no"
// are reached. Checked from word offsets 0..8 as well.
void ExpectSingleWitnessFound(const PopcountBody& body) {
    for (std::size_t words = 1; words <= 18; ++words) {
        const std::size_t size = words * 64;
        BitVector ones(size);
        ones.Fill();
        const BitVector zeros(size);
        for (std::size_t w = 0; w < words; ++w) {
            for (const std::size_t bit : {std::size_t{0}, std::size_t{37},
                                          std::size_t{63}}) {
                BitVector one_bit(size);
                one_bit.Set(w * 64 + bit);
                BitVector all_but_one = ones;
                all_but_one.AndNot(one_bit);
                for (std::size_t first = 0; first <= std::min<std::size_t>(words, 8);
                     ++first) {
                    SCOPED_TRACE(testing::Message()
                                 << body.name << " words " << words << " witness "
                                 << w << ":" << bit << " first word " << first);
                    ExpectAnysAt(body, ones, one_bit, first);      // and: w only
                    ExpectAnysAt(body, ones, zeros, first);        // and: none
                    ExpectAnysAt(body, ones, all_but_one, first);  // and-not: w
                    ExpectAnysAt(body, ones, ones, first);         // and-not: none
                    ExpectAnysAt(body, one_bit, zeros, first);
                    ExpectAnysAt(body, one_bit, one_bit, first);
                }
            }
        }
    }
}

TEST(PopcountTest, ScalarBodyMatchesBitByBitCount) {
    ExpectBodyMatchesBitByBit(ScalarPopcountBody());
}

TEST(PopcountTest, Avx512BodyMatchesBitByBitCount) {
    const PopcountBody* body = Avx512PopcountBody();
    if (body == nullptr) GTEST_SKIP() << "host lacks AVX-512 VPOPCNTDQ";
    ExpectBodyMatchesBitByBit(*body);
}

TEST(PopcountTest, ScalarBodyAnysMatchBitByBit) {
    ExpectAnysMatchBitByBit(ScalarPopcountBody());
    ExpectSingleWitnessFound(ScalarPopcountBody());
}

TEST(PopcountTest, Avx512BodyAnysMatchBitByBit) {
    const PopcountBody* body = Avx512PopcountBody();
    if (body == nullptr) GTEST_SKIP() << "host lacks AVX-512 VPOPCNTDQ";
    ExpectAnysMatchBitByBit(*body);
    ExpectSingleWitnessFound(*body);
}

TEST(PopcountTest, PathNamesTheChosenBody) {
    const PopcountBody* avx512 = Avx512PopcountBody();
    EXPECT_STREQ(PopcountPath(),
                 (avx512 != nullptr ? *avx512 : ScalarPopcountBody()).name);
}

TEST(PopcountTest, DispatchedKernelAndBitVectorCountsMatch) {
    Rng rng(5);
    for (const std::size_t size : {0, 1, 64, 511, 512, 513, 20000}) {
        const BitVector a = RandomBits(size, 0.3, rng);
        const BitVector b = RandomBits(size, 0.6, rng);
        const BitCounts want = CountBitByBit(a, b, 0);
        const std::size_t n = a.words().size();
        EXPECT_EQ(Popcount(a.words().data(), n), want.a);
        EXPECT_EQ(AndPopcount(a.words().data(), b.words().data(), n), want.and_b);
        EXPECT_EQ(AndNotPopcount(a.words().data(), b.words().data(), n),
                  want.and_not_b);
        EXPECT_EQ(a.Count(), want.a);
        EXPECT_EQ(a.AndCount(b), want.and_b);
        EXPECT_EQ(a.AndNotCount(b), want.and_not_b);

        const BitAnys anys = AnyBitByBit(a, b, 0);
        EXPECT_EQ(AndAny(a.words().data(), b.words().data(), n), anys.and_b);
        EXPECT_EQ(AndNotAny(a.words().data(), b.words().data(), n),
                  anys.and_not_b);
        EXPECT_EQ(a.IsDisjointWith(b), !anys.and_b);
        EXPECT_EQ(a.IsSubsetOf(b), !anys.and_not_b);
        BitVector inside = b;
        inside &= a;
        EXPECT_TRUE(inside.IsSubsetOf(a));
        EXPECT_TRUE(inside.IsSubsetOf(b));
        BitVector outside = b;
        outside.AndNot(a);
        EXPECT_TRUE(outside.IsDisjointWith(a));
        EXPECT_TRUE(outside.IsSubsetOf(b));
    }
}

bool TailClear(const BitVector& v) {
    const std::size_t rem = v.size() % 64;
    return rem == 0 || (v.words().back() >> rem) == 0;
}

// The kernels count whole words, so a set bit past size() would be counted.
// Pin that Fill, AndNot and AssignAnd never leave one there.
TEST(PopcountTest, WholeWordOperationsKeepTailBitsClear) {
    Rng rng(9);
    for (const std::size_t size : {1, 63, 65, 127, 130, 1000, 3196}) {
        BitVector full(size);
        full.Fill();
        ASSERT_TRUE(TailClear(full)) << size;
        EXPECT_EQ(full.Count(), size);

        const BitVector b = RandomBits(size, 0.5, rng);
        BitVector diff = full;
        diff.AndNot(b);
        ASSERT_TRUE(TailClear(diff)) << size;
        EXPECT_EQ(diff.Count(), size - b.Count());

        BitVector both(size);
        both.AssignAnd(full, b);
        ASSERT_TRUE(TailClear(both)) << size;
        EXPECT_EQ(both.Count(), b.Count());
        EXPECT_EQ(both.Count(), CountBitByBit(both, b, 0).a);
    }
}

}  // namespace
}  // namespace dfp
