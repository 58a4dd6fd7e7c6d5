// Single-feature selection by information gain (the Item_FS baseline of
// Tables 1–2, following Yang & Pedersen's feature-filtering methodology).
#pragma once

#include <cstddef>
#include <vector>

#include "core/measures.hpp"
#include "data/transaction_db.hpp"

namespace dfp {

/// The k most relevant items (ties → smaller id), ascending ids.
std::vector<std::size_t> TopKItems(const TransactionDatabase& db,
                                   RelevanceMeasure measure, std::size_t k);

/// Relevance of every single item (index = item id).
std::vector<double> ItemRelevances(const TransactionDatabase& db,
                                   RelevanceMeasure measure);

}  // namespace dfp
