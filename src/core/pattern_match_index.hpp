// Compiled pattern matcher: the one way a transaction becomes features.
//
// Testing every pattern against a transaction with a subset scan costs
// O(|Fs| × pattern length) per row. PatternMatchIndex compiles the patterns
// once into an inverted item → pattern-id index (CSR layout) with per-pattern
// hit counters, so matching is O(items-in-txn × avg postings): walk the
// transaction, bump the counter of every pattern containing each item, and a
// pattern matches exactly when its counter reaches its length.
//
// FeatureSpace owns one (FeatureSpace::Encode runs through it) and the
// serving path scores through the same object (serve/registry.hpp). Its
// encodings equal the row-by-row subset-scan reference kept in
// tests/testutil/reference_encoder for any sorted transaction (certified by
// the dfp_core and dfp_serve suites).
//
// The index itself is immutable after Build and safe to share across threads;
// all per-call state lives in a caller-owned Scratch (one per worker).
#pragma once

#include <cstdint>
#include <vector>

#include "fpm/itemset.hpp"

namespace dfp {

class PatternMatchIndex {
  public:
    /// Per-thread matching state. Counters are invalidated lazily via a
    /// generation stamp, so consecutive matches never pay an O(|Fs|) clear.
    struct Scratch {
        std::vector<std::uint32_t> hits;     ///< per-pattern item hits
        std::vector<std::uint32_t> stamp;    ///< generation of `hits[p]`
        std::uint32_t generation = 0;
        std::vector<std::uint32_t> matched;  ///< pattern ids contained
        std::vector<std::uint64_t> encoded;  ///< packed row of dim() bits
    };

    PatternMatchIndex() = default;

    /// Compiles `patterns` (sorted duplicate-free itemsets) for a space whose
    /// first `num_items` coordinates are the single items. Pattern items may
    /// exceed `num_items` (an items-less space still matches its patterns).
    static PatternMatchIndex Build(std::size_t num_items,
                                   const std::vector<Pattern>& patterns);

    std::size_t num_items() const { return num_items_; }
    std::size_t num_patterns() const { return pattern_len_.size(); }
    std::size_t dim() const { return num_items_ + pattern_len_.size(); }
    /// Total posting entries (= sum of pattern lengths).
    std::size_t num_postings() const { return postings_.size(); }

    /// Sizes `scratch` for this index (idempotent; cheap when already sized).
    void InitScratch(Scratch* scratch) const;

    /// Matching only: fills scratch->matched with the ids of all patterns
    /// contained in `transaction` (sorted; a repeated item counts once), in
    /// the order their last item is reached. This is the
    /// O(items × postings) inner loop — the encoded row is not touched.
    void MatchInto(const std::vector<ItemId>& transaction, Scratch* scratch) const;

    /// Encodes `transaction` (sorted) into scratch->encoded, a packed row
    /// (ml/feature_matrix.hpp): item bits below num_items(), then one bit per
    /// contained pattern.
    void EncodeInto(const std::vector<ItemId>& transaction, Scratch* scratch) const;

    /// Convenience for tests/benches: number of contained patterns.
    std::size_t CountMatches(const std::vector<ItemId>& transaction,
                             Scratch* scratch) const {
        InitScratch(scratch);
        MatchInto(transaction, scratch);
        return scratch->matched.size();
    }

  private:
    std::size_t num_items_ = 0;
    /// CSR: postings_[offsets_[i] .. offsets_[i+1]) = patterns containing i,
    /// for every item i below the largest pattern item + 1.
    std::vector<std::uint32_t> offsets_ = {0};
    std::vector<std::uint32_t> postings_;
    std::vector<std::uint32_t> pattern_len_;
};

}  // namespace dfp
