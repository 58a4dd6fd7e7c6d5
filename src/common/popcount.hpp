// Word-array popcount: the one counting kernel under every cover count.
//
// Support counting in the miners, per-class counts, MMRFS redundancy
// (|T(α)∩T(β)|), naive Bayes counts and the SMO row dots all reduce
// to summing the popcounts of 64-bit words, optionally after an AND or an
// AND-NOT with a second array. The kernel has two bodies that return the same
// integers: a scalar loop and an AVX-512 VPOPCNTDQ loop (8 words per step,
// scalar tail). The body is chosen once per process from the CPU's reported
// features; no build option, flag or environment variable selects it.
//
// The same two bodies also answer the early-exit questions behind the cover
// tests: does any word of a ∧ b (disjointness, MMRFS's needy-row test) or of
// a ∧ ¬b (subset, the closed miner's closure scan) have a set bit. They stop
// at the first word (scalar) or 8-word block (AVX-512) that answers yes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dfp {

/// Σ popcount(a[i]) over i < n.
std::size_t Popcount(const std::uint64_t* a, std::size_t n);
/// Σ popcount(a[i] ∧ b[i]) over i < n.
std::size_t AndPopcount(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n);
/// Σ popcount(a[i] ∧ ¬b[i]) over i < n.
std::size_t AndNotPopcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n);

/// True iff a[i] ∧ b[i] ≠ 0 for some i < n.
bool AndAny(const std::uint64_t* a, const std::uint64_t* b, std::size_t n);
/// True iff a[i] ∧ ¬b[i] ≠ 0 for some i < n.
bool AndNotAny(const std::uint64_t* a, const std::uint64_t* b, std::size_t n);

/// Name of the body this process uses: "avx512-vpopcntdq" or "scalar".
const char* PopcountPath();

/// One body of the kernel. The dispatching functions above call exactly one
/// of these; the accessors below let tests certify every body the host can
/// run, not only the chosen one.
struct PopcountBody {
    const char* name;
    std::size_t (*popcount)(const std::uint64_t* a, std::size_t n);
    std::size_t (*and_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n);
    std::size_t (*and_not_popcount)(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n);
    bool (*and_any)(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n);
    bool (*and_not_any)(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n);
};

/// The scalar body; every host runs it.
const PopcountBody& ScalarPopcountBody();
/// The AVX-512 VPOPCNTDQ body, or nullptr when the CPU lacks the instruction
/// or the OS has not enabled the AVX-512 register state.
const PopcountBody* Avx512PopcountBody();

}  // namespace dfp
