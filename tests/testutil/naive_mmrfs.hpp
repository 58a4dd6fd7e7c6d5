// Reference MMRFS: Algorithm 1 as the paper states it, with no caching.
//
// Every greedy round rescans every remaining candidate, recomputes
// max_{β ∈ Fs} R(α, β) from scratch over Fs in selection order, takes the
// argmax gain (lowest index among equal gains), and accepts it only if it
// correctly covers an instance still under δ coverage — found by walking its
// cover row by row. O(|F| · |Fs|) redundancy evaluations per round, so only
// for small pools. The certificate tests compare RunMmrfs against it bitwise.
//
// Redundancy (Eq. 9) is computed here with its own two-pass Jaccard
// (AndCount, then the Count of the materialized union), independent of the counted
// one-pass kernel in core/redundancy.hpp that RunMmrfs uses.
#pragma once

#include <vector>

#include "common/bitvector.hpp"
#include "core/mmrfs.hpp"
#include "fpm/itemset.hpp"

namespace dfp::testutil {

/// Jaccard similarity |A∧B| / |A∨B| of two cover sets (0 when both empty),
/// from two popcount passes.
double CoverJaccard(const BitVector& a, const BitVector& b);

/// Eq. 9: Jaccard(covers) × min(relevance_a, relevance_b).
double Redundancy(const Pattern& a, const Pattern& b, double relevance_a,
                  double relevance_b);

/// Same inputs and result fields as RunMmrfs (`budget` is ignored; `breach`
/// stays kNone).
MmrfsResult NaiveMmrfs(const TransactionDatabase& db,
                       const std::vector<Pattern>& candidates,
                       const MmrfsConfig& config);

}  // namespace dfp::testutil
