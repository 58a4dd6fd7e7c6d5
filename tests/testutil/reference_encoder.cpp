#include "testutil/reference_encoder.hpp"

#include <algorithm>

namespace dfp::testutil {

std::vector<std::uint64_t> ScanEncode(const FeatureSpace& space,
                                      const std::vector<ItemId>& transaction) {
    std::vector<std::uint64_t> out(PackedWords(space.dim()), 0);
    auto set = [&out](std::size_t c) { out[c / 64] |= std::uint64_t{1} << (c % 64); };
    for (ItemId i : transaction) {
        if (i < space.num_items()) set(i);
    }
    const std::vector<Pattern>& patterns = space.patterns();
    for (std::size_t p = 0; p < patterns.size(); ++p) {
        const Itemset& items = patterns[p].items;
        if (std::includes(transaction.begin(), transaction.end(), items.begin(),
                          items.end())) {
            set(space.num_items() + p);
        }
    }
    return out;
}

FeatureMatrix ScanTransform(const FeatureSpace& space,
                            const TransactionDatabase& db) {
    FeatureMatrix x(db.num_transactions(), space.dim());
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        ForEachRowBit(ScanEncode(space, db.transaction(t)),
                      [&x, t](std::size_t c) { x.Set(t, c); });
    }
    return x;
}

}  // namespace dfp::testutil
