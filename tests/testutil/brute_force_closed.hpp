// Reference closed-itemset enumeration for the closed-miner certificates.
//
// Mines every frequent itemset with the reference Apriori, then keeps those
// whose support strictly drops for every superset-by-one: O(F · d), but
// obviously correct, and it shares no code with a production miner.
#pragma once

#include <vector>

#include "common/status.hpp"
#include "data/transaction_db.hpp"
#include "fpm/miner.hpp"

namespace dfp::testutil {

/// The closed frequent itemsets of `db` under `config` (min_sup,
/// max_pattern_len and include_singletons apply to the closed set, as in
/// ClosedMiner), with cover, support and class counts attached.
Result<std::vector<Pattern>> BruteForceClosed(const TransactionDatabase& db,
                                              const MinerConfig& config);

}  // namespace dfp::testutil
