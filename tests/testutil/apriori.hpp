// Reference Apriori: level-wise frequent-itemset mining (Agrawal & Srikant,
// VLDB'94).
//
// Not a product miner: it is kept as an independent second implementation so
// the miner tests can cross-validate Eclat's output (and every miner's budget
// behaviour) on random databases, and the brute-force closed reference
// enumerates with it.
#pragma once

#include "fpm/miner.hpp"

namespace dfp::testutil {

/// Classic Apriori with prefix-join candidate generation, subset pruning, and
/// bitset-based support counting.
class AprioriMiner : public Miner {
  public:
    std::string Name() const override { return "apriori"; }
    Result<MineOutcome<Pattern>> MineBudgeted(
        const TransactionDatabase& db, const MinerConfig& config) const override;
};

}  // namespace dfp::testutil
