// Eclat: depth-first vertical mining over tid bit vectors (Zaki 2000).
//
// The library's one all-frequent miner: support counting is a single
// AND+popcount over cached covers, which suits the dense databases this
// framework produces.
#pragma once

#include "fpm/miner.hpp"

namespace dfp {

/// DFS over item-prefix equivalence classes with bitset tidsets.
class EclatMiner : public Miner {
  public:
    std::string Name() const override { return "eclat"; }
    Result<MineOutcome<Pattern>> MineBudgeted(
        const TransactionDatabase& db, const MinerConfig& config) const override;
};

}  // namespace dfp
