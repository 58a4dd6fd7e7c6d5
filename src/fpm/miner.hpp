// Common interface for frequent-itemset miners.
//
// Two miners implement it (tests/testutil adds a reference Apriori):
//  * ClosedMiner — closed frequent itemsets only (LCM-style prefix-preserving
//                  closure extension; output semantics identical to FPClose,
//                  which the paper uses); PipelineConfig's default miner.
//  * EclatMiner  — all frequent itemsets by vertical bitset DFS. The stream
//                  retrain mines its window with it, and the min_sup = 1
//                  scalability probe enumerates with it.
//
// All miners honour an ExecutionBudget (pattern cap, wall-clock deadline,
// estimated-memory cap, cancellation) so that runaway enumerations (e.g. the
// paper's min_sup = 1 rows in Tables 3–5) stop cooperatively. The primary
// entry point, MineBudgeted(), returns whatever was enumerated before the
// breach (truncated sets are still support-correct); the strict Mine()
// wrapper converts any breach into an error Status for callers that need
// all-or-nothing semantics.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/status.hpp"
#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"

namespace dfp {

/// Mining parameters. Exactly one of min_sup_rel / min_sup_abs is used:
/// min_sup_rel if non-negative, otherwise min_sup_abs.
struct MinerConfig {
    /// Relative min_sup θ0 in [0, 1]; negative means "use min_sup_abs".
    double min_sup_rel = -1.0;
    /// Absolute min_sup (count); ignored when min_sup_rel >= 0.
    std::size_t min_sup_abs = 1;
    /// Maximum pattern length emitted. Every miner bounds its search here, so
    /// pattern and memory budgets never count a pattern beyond the bound.
    /// ClosedMiner keeps the closed itemsets of at most this length (it never
    /// truncates a closure, which would change closure semantics) and skips
    /// the subtree below any longer closure.
    std::size_t max_pattern_len = std::numeric_limits<std::size_t>::max();
    /// Safety cap on emitted patterns; the effective cap is the min of this
    /// and budget.max_patterns. MineBudgeted() truncates here; Mine() fails.
    std::size_t max_patterns = 20'000'000;
    /// Emit single-item patterns too (the framework's feature space is I ∪ F,
    /// so singletons are usually redundant as patterns; default keeps them).
    bool include_singletons = true;
    /// Worker threads for the mining fan-out (Eclat and the closed miner
    /// decompose recursively over conditional subproblems; the reference
    /// Apriori stays level-wise serial). 1 = no pool: the same DFS runs
    /// inline on the calling thread and never splits; 0 =
    /// hardware_concurrency. The complete pattern set — and its emission
    /// order — is identical for every thread count; only budget-truncated
    /// runs may differ, and those are subsequences of the serial emission
    /// sequence (see DESIGN.md §17).
    std::size_t num_threads = 1;
    /// Recursive-split granularity for the parallel miners: a conditional
    /// subproblem whose estimated work (conditional-base rows × remaining
    /// items) exceeds this re-submits to the task pool instead of being mined
    /// inline by its discoverer. Lower = more, finer tasks (tests use 1 to
    /// force splits everywhere); the default keeps task overhead under ~1% on
    /// the bench corpus while still decomposing every first- and second-level
    /// subtree.
    std::size_t split_work_threshold = 8192;
    /// Execution limits (deadline, memory, cancellation). Default = unlimited.
    ExecutionBudget budget;
};

/// Resolves the effective absolute support threshold (always >= 1).
std::size_t ResolveMinSup(const MinerConfig& config, std::size_t num_transactions);

/// Abstract frequent-itemset miner.
class Miner {
  public:
    virtual ~Miner() = default;

    /// Short identifier ("closed", "eclat", ...).
    virtual std::string Name() const = 0;

    /// Mines patterns from `db`, honouring config.budget cooperatively. On
    /// success every pattern has items + support filled (covers/class counts
    /// are attached by the caller when needed). If a budget fired, the
    /// outcome carries the patterns enumerated so far plus the breach —
    /// each emitted pattern still has its exact support.
    virtual Result<MineOutcome<Pattern>> MineBudgeted(
        const TransactionDatabase& db, const MinerConfig& config) const = 0;

    /// Strict all-or-nothing wrapper over MineBudgeted(): any breach becomes
    /// an error (Cancelled for a fired CancelToken, ResourceExhausted
    /// otherwise). Existing callers that cannot use partial sets keep these
    /// semantics.
    Result<std::vector<Pattern>> Mine(const TransactionDatabase& db,
                                      const MinerConfig& config) const;
};

/// Applies config.include_singletons / max_pattern_len as post-filters.
void FilterPatterns(const MinerConfig& config, std::vector<Pattern>* patterns);

}  // namespace dfp
