// Reference feature encoder: the row-by-row subset scan.
//
// Tests every pattern of a FeatureSpace against the transaction with
// std::includes — O(|Fs| × pattern length) per row, the encoder the library
// ran before it compiled a PatternMatchIndex and built the training matrix
// from pattern covers. The certificate tests compare FeatureSpace::Encode,
// FeatureSpace::Transform and the serving index against it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/feature_space.hpp"

namespace dfp::testutil {

/// The packed row of `transaction` (sorted): item bits (items <
/// space.num_items()) then one bit per pattern, set iff the pattern ⊆
/// `transaction`.
std::vector<std::uint64_t> ScanEncode(const FeatureSpace& space,
                                      const std::vector<ItemId>& transaction);

/// ScanEncode of every row of `db`, set bit by bit.
FeatureMatrix ScanTransform(const FeatureSpace& space,
                            const TransactionDatabase& db);

}  // namespace dfp::testutil
