// Pattern redundancy (Definition 4 / Eq. 9 of the paper).
//
// Two patterns are redundant when they cover largely the same transactions:
//   R(α, β) = Jaccard(cover(α), cover(β)) · min(S(α), S(β))
// i.e. the weaker pattern's relevance, discounted by how much the covers
// overlap. A non-closed pattern and its closure have Jaccard 1, which is why
// the framework mines *closed* patterns: the non-closed ones are completely
// redundant.
//
// Selection evaluates R against one fixed cover many times, so callers cache
// each cover's popcount once and the kernel makes a single AndCount pass:
// |A∨B| = |A| + |B| − |A∧B| gives the same integers as counting the union,
// hence the same double ratio bit for bit.
#pragma once

#include <cstddef>

#include "common/bitvector.hpp"

namespace dfp {

/// Jaccard similarity |A∧B| / |A∨B| of two covers whose popcounts
/// `count_a` = |A| and `count_b` = |B| are known (0 when both are empty).
double CoverJaccard(const BitVector& a, std::size_t count_a,
                    const BitVector& b, std::size_t count_b);

}  // namespace dfp
