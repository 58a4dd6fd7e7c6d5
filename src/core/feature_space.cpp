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

std::span<const double> FeatureSpace::Encode(
    const std::vector<ItemId>& transaction,
    PatternMatchIndex::Scratch* scratch) const {
    matcher_.EncodeInto(transaction, scratch);
    return scratch->encoded;
}

FeatureMatrix FeatureSpace::Transform(const TransactionDatabase& db) const {
    const std::size_t rows = db.num_transactions();
    const std::size_t cols = dim();
    FeatureMatrix x(rows, cols);
    if (rows == 0) return x;  // no row to point into
    for (std::size_t t = 0; t < rows; ++t) {
        const std::span<double> row = x.MutableRow(t);
        for (ItemId i : db.transaction(t)) {
            if (i < num_items_) row[i] = 1.0;
        }
    }
    // Column num_items_ + p is pattern p's cover over db. It is re-derived
    // from db's item covers (a stored Pattern::cover may belong to another
    // database, and loaded patterns carry none).
    double* const pattern_cols = x.MutableRow(0).data() + num_items_;
    for (std::size_t p = 0; p < patterns_.size(); ++p) {
        const Itemset& items = patterns_[p].items;
        const bool in_universe = std::all_of(
            items.begin(), items.end(),
            [&db](ItemId i) { return i < db.num_items(); });
        if (!in_universe) continue;  // no row of db contains it
        double* const column = pattern_cols + p;
        db.CoverOf(items).ForEach(
            [column, cols](std::uint32_t r) { column[r * cols] = 1.0; });
    }
    return x;
}

}  // namespace dfp
