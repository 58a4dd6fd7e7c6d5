#include "testutil/reference_encoder.hpp"

#include <algorithm>

namespace dfp::testutil {

std::vector<double> ScanEncode(const FeatureSpace& space,
                               const std::vector<ItemId>& transaction) {
    std::vector<double> out(space.dim(), 0.0);
    for (ItemId i : transaction) {
        if (i < space.num_items()) out[i] = 1.0;
    }
    const std::vector<Pattern>& patterns = space.patterns();
    for (std::size_t p = 0; p < patterns.size(); ++p) {
        const Itemset& items = patterns[p].items;
        if (std::includes(transaction.begin(), transaction.end(), items.begin(),
                          items.end())) {
            out[space.num_items() + p] = 1.0;
        }
    }
    return out;
}

FeatureMatrix ScanTransform(const FeatureSpace& space,
                            const TransactionDatabase& db) {
    FeatureMatrix x(db.num_transactions(), space.dim());
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        const std::vector<double> row = ScanEncode(space, db.transaction(t));
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (row[c] != 0.0) x.Set(t, c);
        }
    }
    return x;
}

}  // namespace dfp::testutil
