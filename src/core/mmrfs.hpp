// MMRFS — Maximal-Marginal-Relevance Feature Selection (Algorithm 1).
//
// Greedy selection over mined patterns: start from the most relevant pattern,
// then repeatedly take the pattern with the largest marginal gain
//     g(α) = S(α) − max_{β ∈ Fs} R(α, β)
// accepting it only if it *correctly covers* (pattern present AND the
// pattern's majority class equals the instance label) at least one training
// instance that is not yet covered δ times. Selection stops when every
// instance is covered δ times, the candidate pool empties, or an explicit
// feature cap is hit. The database-coverage parameter δ thus sizes the
// selected set automatically, as in CMAR.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/budget.hpp"
#include "core/measures.hpp"
#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"

namespace dfp {

struct MmrfsConfig {
    /// Relevance measure S (Definition 3).
    RelevanceMeasure relevance = RelevanceMeasure::kInfoGain;
    /// Database coverage δ: stop once every instance is covered δ times.
    std::size_t coverage_delta = 3;
    /// Hard cap on |Fs| (the paper's algorithm has none; useful in sweeps).
    std::size_t max_features = std::numeric_limits<std::size_t>::max();
    /// Optional per-candidate keep-mask from the significance filter
    /// (stats/significance.hpp). Masked-out candidates (mask value 0) are
    /// never relevance-scored, never enter the gain heap and are never
    /// selected — exactly as if pre-discarded — but candidate *indices* are
    /// preserved, so MmrfsResult::selected still indexes the original vector.
    /// Null (the default) keeps every candidate. Size must equal the
    /// candidate count. Borrowed, not owned.
    const std::vector<char>* candidate_mask = nullptr;
    /// Execution limits; a breach stops the greedy loop early, keeping the
    /// features selected so far (each selection is individually valid).
    ExecutionBudget budget;
};

struct MmrfsResult {
    /// Indices into the candidate vector, in selection order.
    std::vector<std::size_t> selected;
    /// Marginal gain of each selected pattern at the time of selection.
    std::vector<double> gains;
    /// Relevance S(α) of every candidate (by candidate index).
    std::vector<double> relevance;
    /// Per-instance final coverage counts.
    std::vector<std::size_t> coverage;
    /// kNone when selection ran to its natural stop; otherwise the budget
    /// breach that truncated the greedy loop.
    BudgetBreach breach = BudgetBreach::kNone;
};

/// Runs Algorithm 1. Candidates must have metadata attached against `db`
/// (cover + class_counts). Lazy greedy (DESIGN.md §17): each candidate's
/// max-redundancy is refreshed only when it reaches the top of the gain heap,
/// and a candidate that can no longer correctly cover a needy instance is
/// dropped without refreshing. Worst case O(|F| · |Fs|) redundancy
/// evaluations plus O(log |F|) per heap operation; in practice far fewer.
/// Each evaluation is one AndCount pass against cached cover popcounts.
/// Runs serially: selection is a few milliseconds on the bench shapes.
MmrfsResult RunMmrfs(const TransactionDatabase& db,
                     const std::vector<Pattern>& candidates,
                     const MmrfsConfig& config);

/// Convenience: returns the selected patterns themselves.
std::vector<Pattern> SelectPatterns(const TransactionDatabase& db,
                                    const std::vector<Pattern>& candidates,
                                    const MmrfsConfig& config);

/// Baselines for the selection ablation bench: take the top-k candidates by
/// relevance alone (no redundancy term), or k uniformly random candidates.
std::vector<std::size_t> TopKByRelevance(const TransactionDatabase& db,
                                         const std::vector<Pattern>& candidates,
                                         RelevanceMeasure measure, std::size_t k);

}  // namespace dfp
