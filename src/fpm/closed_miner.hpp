// Closed frequent-itemset mining.
//
// The paper uses FPClose (Grahne & Zhu, FIMI'03) to generate closed patterns;
// closedness matters to the framework because a non-closed pattern is fully
// redundant w.r.t. its closure under the Eq. 9 redundancy measure (identical
// cover ⇒ maximal Jaccard). We implement the LCM-style prefix-preserving
// closure extension (Uno et al.) over vertical bit vectors: it enumerates
// exactly the closed frequent itemsets — the same output as FPClose — with
// polynomial delay and no subsumption store. Closures only grow down the
// DFS, so MinerConfig::max_pattern_len prunes it exactly: a closure longer
// than the bound is neither emitted nor descended into, and one at the bound
// is emitted as a leaf.
#pragma once

#include "fpm/miner.hpp"

namespace dfp {

/// Mines closed frequent itemsets (FPClose-equivalent output).
class ClosedMiner : public Miner {
  public:
    std::string Name() const override { return "closed"; }
    Result<MineOutcome<Pattern>> MineBudgeted(
        const TransactionDatabase& db, const MinerConfig& config) const override;
};

}  // namespace dfp
