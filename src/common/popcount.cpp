#include "common/popcount.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DFP_POPCOUNT_AVX512 1
#else
#define DFP_POPCOUNT_AVX512 0
#endif

namespace dfp {

namespace {

// What each word is combined with before it is counted.
enum class Combine { kNone, kAnd, kAndNot };

template <Combine C>
std::uint64_t Word(const std::uint64_t* a, const std::uint64_t* b, std::size_t i) {
    if constexpr (C == Combine::kNone) {
        return a[i];
    } else if constexpr (C == Combine::kAnd) {
        return a[i] & b[i];
    } else {
        return a[i] & ~b[i];
    }
}

// Counts words [begin, n).
template <Combine C>
std::size_t ScalarCount(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t begin, std::size_t n) {
    std::size_t count = 0;
    for (std::size_t i = begin; i < n; ++i) {
        count += static_cast<std::size_t>(__builtin_popcountll(Word<C>(a, b, i)));
    }
    return count;
}

// True iff some combined word in [begin, n) has a set bit; stops at the
// first one.
template <Combine C>
bool ScalarAny(const std::uint64_t* a, const std::uint64_t* b,
               std::size_t begin, std::size_t n) {
    for (std::size_t i = begin; i < n; ++i) {
        if (Word<C>(a, b, i) != 0) return true;
    }
    return false;
}

#if DFP_POPCOUNT_AVX512
// Eight words per step into eight 64-bit lane counts; the last n % 8 words go
// through the scalar loop, so no load reaches past word n − 1. The AND, the
// AND-NOT and the final lane sum avoid the intrinsics that take an undefined
// pass-through operand, which trips GCC 12's -Wmaybe-uninitialized.
template <Combine C>
__attribute__((target("avx512f,avx512vpopcntdq"))) std::size_t Avx512Count(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
    if (n < 8) return ScalarCount<C>(a, b, 0, n);
    __m512i lanes = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i w = _mm512_loadu_si512(a + i);
        if constexpr (C == Combine::kAnd) {
            w &= _mm512_loadu_si512(b + i);
        } else if constexpr (C == Combine::kAndNot) {
            w &= ~_mm512_loadu_si512(b + i);
        }
        lanes = _mm512_add_epi64(lanes, _mm512_popcnt_epi64(w));
    }
    alignas(64) std::uint64_t lane_counts[8] = {};
    _mm512_store_si512(lane_counts, lanes);
    std::size_t count = ScalarCount<C>(a, b, i, n);
    for (const std::uint64_t c : lane_counts) count += static_cast<std::size_t>(c);
    return count;
}

// Eight words per step, stopping at the first block with a set bit; the last
// n % 8 words go through the scalar loop. Like Avx512Count it combines words
// with vector operators and tests them with an intrinsic that takes no
// pass-through operand.
template <Combine C>
__attribute__((target("avx512f"))) bool Avx512Any(const std::uint64_t* a,
                                                  const std::uint64_t* b,
                                                  std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i w = _mm512_loadu_si512(a + i);
        if constexpr (C == Combine::kAnd) {
            w &= _mm512_loadu_si512(b + i);
        } else if constexpr (C == Combine::kAndNot) {
            w &= ~_mm512_loadu_si512(b + i);
        }
        if (_mm512_test_epi64_mask(w, w) != 0) return true;
    }
    return ScalarAny<C>(a, b, i, n);
}

// __builtin_cpu_supports also requires the OS to have enabled the AVX-512
// register state (XCR0), so a true answer means the body can run here.
bool HostHasAvx512Popcount() {
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512vpopcntdq");
    }();
    return supported;
}
#endif

// Dispatches one count to the body chosen for this process.
template <Combine C>
std::size_t Count(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
#if DFP_POPCOUNT_AVX512
    if (HostHasAvx512Popcount()) return Avx512Count<C>(a, b, n);
#endif
    return ScalarCount<C>(a, b, 0, n);
}

template <Combine C>
bool Any(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
#if DFP_POPCOUNT_AVX512
    if (HostHasAvx512Popcount()) return Avx512Any<C>(a, b, n);
#endif
    return ScalarAny<C>(a, b, 0, n);
}

const PopcountBody kScalarBody{
    "scalar",
    [](const std::uint64_t* a, std::size_t n) {
        return ScalarCount<Combine::kNone>(a, nullptr, 0, n);
    },
    [](const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
        return ScalarCount<Combine::kAnd>(a, b, 0, n);
    },
    [](const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
        return ScalarCount<Combine::kAndNot>(a, b, 0, n);
    },
    [](const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
        return ScalarAny<Combine::kAnd>(a, b, 0, n);
    },
    [](const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
        return ScalarAny<Combine::kAndNot>(a, b, 0, n);
    },
};

#if DFP_POPCOUNT_AVX512
const PopcountBody kAvx512Body{
    "avx512-vpopcntdq",
    [](const std::uint64_t* a, std::size_t n) {
        return Avx512Count<Combine::kNone>(a, nullptr, n);
    },
    [](const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
        return Avx512Count<Combine::kAnd>(a, b, n);
    },
    [](const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
        return Avx512Count<Combine::kAndNot>(a, b, n);
    },
    [](const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
        return Avx512Any<Combine::kAnd>(a, b, n);
    },
    [](const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
        return Avx512Any<Combine::kAndNot>(a, b, n);
    },
};
#endif

}  // namespace

std::size_t Popcount(const std::uint64_t* a, std::size_t n) {
    return Count<Combine::kNone>(a, nullptr, n);
}

std::size_t AndPopcount(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n) {
    return Count<Combine::kAnd>(a, b, n);
}

std::size_t AndNotPopcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
    return Count<Combine::kAndNot>(a, b, n);
}

bool AndAny(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
    return Any<Combine::kAnd>(a, b, n);
}

bool AndNotAny(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
    return Any<Combine::kAndNot>(a, b, n);
}

const char* PopcountPath() {
    const PopcountBody* avx512 = Avx512PopcountBody();
    return (avx512 != nullptr ? *avx512 : kScalarBody).name;
}

const PopcountBody& ScalarPopcountBody() { return kScalarBody; }

const PopcountBody* Avx512PopcountBody() {
#if DFP_POPCOUNT_AVX512
    if (HostHasAvx512Popcount()) return &kAvx512Body;
#endif
    return nullptr;
}

}  // namespace dfp
