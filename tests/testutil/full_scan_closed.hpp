// Reference closed miner: the LCM prefix-preserving closure-extension DFS
// with a full closure scan, serial, in ClosedMiner's emission order.
//
// Every node counts each frequent item from its start index against its
// cover, and every surviving extension's closure scans *all* frequent items
// (subset test per item). ClosedMiner instead scans only the node's
// conditional item list, the items not yet infrequent in an ancestor's
// cover; the certificate tests compare the two item for item, support for
// support, in order. Shares no code with ClosedMiner: no shards, no scratch,
// no budget.
#pragma once

#include <vector>

#include "data/transaction_db.hpp"
#include "fpm/miner.hpp"

namespace dfp::testutil {

/// The closed itemsets ClosedMiner emits for `config` (min_sup,
/// max_pattern_len and include_singletons; no budget, no pattern cap), in
/// its one-thread DFS order, with items and support set (no metadata).
std::vector<Pattern> FullScanClosed(const TransactionDatabase& db,
                                    const MinerConfig& config);

}  // namespace dfp::testutil
