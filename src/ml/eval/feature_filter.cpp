#include "ml/eval/feature_filter.hpp"

#include <algorithm>

namespace dfp {

std::vector<double> ItemRelevances(const TransactionDatabase& db,
                                   RelevanceMeasure measure) {
    std::vector<double> relevance(db.num_items(), 0.0);
    std::vector<std::size_t> class_support;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        relevance[i] = Relevance(
            measure, StatsOfCover(db, db.ItemCover(i), &class_support));
    }
    return relevance;
}

std::vector<std::size_t> TopKItems(const TransactionDatabase& db,
                                   RelevanceMeasure measure, std::size_t k) {
    const auto relevance = ItemRelevances(db, measure);
    std::vector<std::size_t> order(relevance.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&relevance](std::size_t a, std::size_t b) {
        if (relevance[a] != relevance[b]) return relevance[a] > relevance[b];
        return a < b;
    });
    order.resize(std::min(k, order.size()));
    std::sort(order.begin(), order.end());
    return order;
}

}  // namespace dfp
