// The augmented feature space B^{d'} over I ∪ Fs (Section 2).
//
// After feature selection, the training data is mapped into a binary space
// whose first d coordinates are the single items and whose remaining |Fs|
// coordinates indicate pattern containment. The same mapping is applied to
// unseen instances at prediction time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/pattern_match_index.hpp"
#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"
#include "ml/feature_matrix.hpp"

namespace dfp {

/// Immutable item+pattern → vector encoder. Single transactions are encoded
/// through the compiled PatternMatchIndex the space owns; whole databases are
/// transformed column by column from the pattern covers.
class FeatureSpace {
  public:
    FeatureSpace() = default;

    /// Builds the space over `num_items` single items plus the given patterns.
    /// Patterns of length ≤ 1 are dropped (they duplicate item coordinates).
    static FeatureSpace Build(std::size_t num_items, std::vector<Pattern> patterns);

    /// Builds an items-only space (the Item_* baselines).
    static FeatureSpace ItemsOnly(std::size_t num_items);

    std::size_t num_items() const { return num_items_; }
    std::size_t num_patterns() const { return patterns_.size(); }
    /// d' = |I| + |Fs|.
    std::size_t dim() const { return num_items_ + patterns_.size(); }

    const std::vector<Pattern>& patterns() const { return patterns_; }
    /// The compiled matcher every single-transaction encoding runs through.
    const PatternMatchIndex& matcher() const { return matcher_; }

    /// Encodes one transaction (sorted item list) into scratch->encoded and
    /// returns it: a packed row of dim() bits. Items ≥ num_items() are
    /// ignored.
    std::span<const std::uint64_t> Encode(const std::vector<ItemId>& transaction,
                                          PatternMatchIndex::Scratch* scratch) const;

    /// Maps a whole database into B^{d'}, equal to encoding each row: item
    /// column i is db.ItemCover(i), and pattern column p is db.CoverOf(pattern
    /// p) (all zero when the item or pattern lies outside db's universe).
    FeatureMatrix Transform(const TransactionDatabase& db) const;

  private:
    std::size_t num_items_ = 0;
    std::vector<Pattern> patterns_;
    PatternMatchIndex matcher_;
};

}  // namespace dfp
