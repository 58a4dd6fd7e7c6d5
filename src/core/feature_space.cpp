#include "core/feature_space.hpp"

#include <algorithm>

namespace dfp {

FeatureSpace FeatureSpace::Build(std::size_t num_items,
                                 std::vector<Pattern> patterns) {
    FeatureSpace fs;
    fs.num_items_ = num_items;
    patterns.erase(std::remove_if(patterns.begin(), patterns.end(),
                                  [](const Pattern& p) { return p.length() <= 1; }),
                   patterns.end());
    fs.patterns_ = std::move(patterns);
    fs.matcher_ = PatternMatchIndex::Build(num_items, fs.patterns_);
    return fs;
}

FeatureSpace FeatureSpace::ItemsOnly(std::size_t num_items) {
    return Build(num_items, {});
}

std::span<const std::uint64_t> FeatureSpace::Encode(
    const std::vector<ItemId>& transaction,
    PatternMatchIndex::Scratch* scratch) const {
    matcher_.EncodeInto(transaction, scratch);
    return scratch->encoded;
}

FeatureMatrix FeatureSpace::Transform(const TransactionDatabase& db) const {
    const std::size_t rows = db.num_transactions();
    std::vector<BitVector> columns;
    columns.reserve(dim());
    for (ItemId i = 0; i < num_items_; ++i) {
        columns.push_back(i < db.num_items() ? db.ItemCover(i) : BitVector(rows));
    }
    // Column num_items_ + p is pattern p's cover over db. It is re-derived
    // from db's item covers (a stored Pattern::cover may belong to another
    // database, and loaded patterns carry none).
    for (const Pattern& pattern : patterns_) {
        const Itemset& items = pattern.items;
        const bool in_universe = std::all_of(
            items.begin(), items.end(),
            [&db](ItemId i) { return i < db.num_items(); });
        // A pattern naming an item outside db's universe covers no row.
        columns.push_back(in_universe ? db.CoverOf(items) : BitVector(rows));
    }
    return FeatureMatrix(rows, std::move(columns));
}

}  // namespace dfp
