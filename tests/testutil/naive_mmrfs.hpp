// Reference MMRFS: Algorithm 1 as the paper states it, with no caching.
//
// Every greedy round rescans every remaining candidate, recomputes
// max_{β ∈ Fs} R(α, β) from scratch over Fs in selection order, takes the
// argmax gain (lowest index among equal gains), and accepts it only if it
// correctly covers an instance still under δ coverage — found by walking its
// cover row by row. O(|F| · |Fs|) redundancy evaluations per round, so only
// for small pools. The certificate tests compare RunMmrfs against it bitwise.
#pragma once

#include <vector>

#include "core/mmrfs.hpp"

namespace dfp::testutil {

/// Same inputs and result fields as RunMmrfs (`budget` and `num_threads` are
/// ignored; `breach` stays kNone).
MmrfsResult NaiveMmrfs(const TransactionDatabase& db,
                       const std::vector<Pattern>& candidates,
                       const MmrfsConfig& config);

}  // namespace dfp::testutil
