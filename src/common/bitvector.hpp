// Fixed-size packed bit vector used for transaction cover sets.
//
// Pattern mining and MMRFS work over per-pattern cover sets (which rows of the
// database contain a pattern). Those sets are dense and of fixed universe size
// (the number of transactions), so a 64-bit-packed vector with popcount-based
// intersection counting is both the fastest and the simplest representation.
#pragma once

#include <cstdint>
#include <cstddef>
#include <limits>
#include <new>
#include <span>
#include <vector>

namespace dfp {

/// Allocator whose blocks start on a 64-byte (cache-line) boundary, so an
/// 8-word vector load from the start of a cover never straddles two lines.
/// It over-allocates by 64 bytes with plain operator new and keeps the raw
/// pointer in the word just before the aligned block. (The aligned operator
/// new goes through glibc's memalign, which costs more per allocation than
/// the alignment saves on short covers.)
template <typename T>
struct CacheLineAllocator {
    using value_type = T;
    static constexpr std::size_t kAlign = 64;
    static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= alignof(void*),
                  "the raw pointer is stored in the bytes before the block");

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

    T* allocate(std::size_t n) {
        if (n > (std::numeric_limits<std::size_t>::max() - kAlign) / sizeof(T)) {
            throw std::bad_array_new_length();
        }
        // operator new's block is at least pointer-aligned, so the first
        // 64-byte boundary past one stored pointer lies within kAlign bytes.
        void* raw = ::operator new(n * sizeof(T) + kAlign);
        const std::uintptr_t aligned =
            (reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*) + kAlign - 1) &
            ~std::uintptr_t{kAlign - 1};
        reinterpret_cast<void**>(aligned)[-1] = raw;
        return reinterpret_cast<T*>(aligned);
    }
    void deallocate(T* p, std::size_t) noexcept {
        ::operator delete(reinterpret_cast<void**>(p)[-1]);
    }

    friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) {
        return true;
    }
};

/// Fixed-universe bit set. All binary operations require equal sizes.
class BitVector {
  public:
    BitVector() = default;
    /// Creates a vector of `size` bits, all clear.
    explicit BitVector(std::size_t size);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// The packed words, bit i in word i / 64, starting on a 64-byte
    /// boundary. Bits at and past size() in the last word are always clear,
    /// so whole-word counts are exact.
    std::span<const std::uint64_t> words() const { return words_; }
    /// Writable words for word-wise updates outside this class (MMRFS's
    /// coverage step). The caller keeps the bits past size() clear.
    std::span<std::uint64_t> mutable_words() { return words_; }

    void Set(std::size_t i);
    bool Test(std::size_t i) const;

    /// Sets all bits (respecting the tail mask).
    void Fill();

    /// Number of set bits.
    std::size_t Count() const;

    /// this &= other.
    BitVector& operator&=(const BitVector& other);
    /// this |= other.
    BitVector& operator|=(const BitVector& other);
    /// Clears every bit of this that is set in other (this &= ~other).
    BitVector& AndNot(const BitVector& other);

    friend BitVector operator&(BitVector a, const BitVector& b) { return a &= b; }
    friend BitVector operator|(BitVector a, const BitVector& b) { return a |= b; }

    bool operator==(const BitVector& other) const = default;

    /// |this ∧ other| without materializing the intersection.
    std::size_t AndCount(const BitVector& other) const;
    /// |this ∧ ¬other| without materializing the difference (the diffset
    /// cardinality kernel of the hybrid Eclat).
    std::size_t AndNotCount(const BitVector& other) const;

    /// this = a ∧ b, reusing this vector's existing word storage (the
    /// per-depth scratch path of the miners: no allocation when sizes match).
    void AssignAnd(const BitVector& a, const BitVector& b);
    /// this = a ∧ ¬b, reusing existing storage.
    void AssignAndNot(const BitVector& a, const BitVector& b);
    /// True iff every set bit of this is also set in other.
    bool IsSubsetOf(const BitVector& other) const;
    /// True iff the two vectors share no set bit.
    bool IsDisjointWith(const BitVector& other) const;

    /// Indices of set bits, ascending.
    std::vector<std::uint32_t> ToIndices() const;

    /// Calls fn(index) for every set bit, ascending.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits != 0) {
                const int tz = __builtin_ctzll(bits);
                fn(static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(tz)));
                bits &= bits - 1;
            }
        }
    }

  private:
    void MaskTail();

    std::size_t size_ = 0;
    std::vector<std::uint64_t, CacheLineAllocator<std::uint64_t>> words_;
};

}  // namespace dfp
