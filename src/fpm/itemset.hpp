// Itemset and mined-pattern value types shared by all miners.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "data/transaction_db.hpp"

namespace dfp {

/// A sorted, duplicate-free list of item ids.
using Itemset = std::vector<ItemId>;

/// A mined pattern: the itemset plus the metadata the classification framework
/// needs (support, cover set, per-class counts). Miners fill items/support;
/// AttachMetadata() fills cover/class_counts against a reference database.
struct Pattern {
    Itemset items;
    /// Absolute support in the database the metadata was attached against.
    std::size_t support = 0;
    /// Rows of the reference database containing the pattern.
    BitVector cover;
    /// Per-class row counts of the cover.
    std::vector<std::size_t> class_counts;

    std::size_t length() const { return items.size(); }

    /// Relative support given the reference database size.
    double RelativeSupport(std::size_t num_transactions) const {
        return num_transactions == 0
                   ? 0.0
                   : static_cast<double>(support) /
                         static_cast<double>(num_transactions);
    }

    /// Class with the highest count in the cover (ties → smallest label).
    ClassLabel MajorityClass() const;

    /// Confidence of the rule (items → MajorityClass()).
    double Confidence() const;
};

/// True iff `a` ⊆ `b` (both sorted).
bool IsSubsetOf(const Itemset& a, const Itemset& b);

/// Canonical order: by length, then lexicographically by items.
bool PatternLess(const Pattern& a, const Pattern& b);

/// Sorts patterns into the canonical order (TrainWithCandidates pools its
/// candidates in it; tests compare in it).
void SortPatterns(std::vector<Pattern>& patterns);

/// "{a0=v1, a3=v0}" using the database's item names, or "{3, 17}" without one.
std::string ItemsetToString(const Itemset& items,
                            const TransactionDatabase* db = nullptr);

/// Computes cover and class_counts (and re-derives support) for each pattern
/// against `db`. Use after mining — including after mining on a class
/// partition, to re-anchor the patterns on the full training database.
void AttachMetadata(const TransactionDatabase& db, std::vector<Pattern>* patterns);

}  // namespace dfp
