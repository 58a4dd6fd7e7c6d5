#include "data/transaction_db.hpp"

#include <algorithm>
#include <cassert>

#include "common/string_util.hpp"

namespace dfp {

TransactionDatabase TransactionDatabase::FromDataset(const Dataset& data,
                                                     const ItemEncoder& encoder) {
    std::vector<std::vector<ItemId>> txns;
    txns.reserve(data.num_rows());
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
        txns.push_back(encoder.EncodeRow(data, r));
    }
    std::vector<std::string> names(encoder.num_items());
    for (ItemId i = 0; i < encoder.num_items(); ++i) names[i] = encoder.ItemName(i);
    return FromTransactions(std::move(txns), data.labels(), encoder.num_items(),
                            data.num_classes(), std::move(names));
}

TransactionDatabase TransactionDatabase::FromTransactions(
    std::vector<std::vector<ItemId>> transactions, std::vector<ClassLabel> labels,
    std::size_t num_items, std::size_t num_classes,
    std::vector<std::string> item_names) {
    assert(transactions.size() == labels.size());
    TransactionDatabase db;
    db.num_items_ = num_items;
    db.num_classes_ = num_classes;
    db.transactions_ = std::move(transactions);
    db.labels_ = std::move(labels);
    db.item_names_ = std::move(item_names);
    for (auto& t : db.transactions_) {
        std::sort(t.begin(), t.end());
        t.erase(std::unique(t.begin(), t.end()), t.end());
        assert(t.empty() || t.back() < num_items);
    }
    db.BuildIndexes();
    return db;
}

void TransactionDatabase::BuildIndexes() {
    item_covers_.assign(num_items_, BitVector(num_transactions()));
    class_covers_.assign(num_classes_, BitVector(num_transactions()));
    class_counts_.assign(num_classes_, 0);
    for (std::size_t t = 0; t < num_transactions(); ++t) {
        for (ItemId i : transactions_[t]) item_covers_[i].Set(t);
        class_covers_[labels_[t]].Set(t);
        ++class_counts_[labels_[t]];
    }
    item_class_counts_ = std::make_shared<LazyCounts>();
}

const std::vector<std::size_t>& TransactionDatabase::ItemClassCounts() const {
    static const std::vector<std::size_t> kNone;
    if (item_class_counts_ == nullptr) return kNone;  // never built
    LazyCounts& table = *item_class_counts_;
    std::call_once(table.once, [this, &table] {
        const std::size_t k = num_classes_;
        table.counts.resize(num_items_ * k);
        for (std::size_t i = 0; i < num_items_; ++i) {
            for (std::size_t c = 0; c < k; ++c) {
                table.counts[i * k + c] = item_covers_[i].AndCount(class_covers_[c]);
            }
        }
    });
    return table.counts;
}

BitVector TransactionDatabase::CoverOf(const std::vector<ItemId>& items) const {
    if (items.empty()) {
        BitVector all(num_transactions());
        all.Fill();
        return all;
    }
    BitVector cover = item_covers_[items[0]];
    for (std::size_t i = 1; i < items.size(); ++i) cover &= item_covers_[items[i]];
    return cover;
}

std::size_t TransactionDatabase::SupportOf(const std::vector<ItemId>& items) const {
    return CoverOf(items).Count();
}

std::vector<std::size_t> TransactionDatabase::ClassCountsOf(
    const BitVector& cover) const {
    std::vector<std::size_t> counts(num_classes_, 0);
    for (std::size_t c = 0; c < num_classes_; ++c) {
        counts[c] = cover.AndCount(class_covers_[c]);
    }
    return counts;
}

std::vector<double> TransactionDatabase::ClassPriors() const {
    std::vector<double> priors(num_classes_, 0.0);
    if (labels_.empty()) return priors;
    for (std::size_t c = 0; c < num_classes_; ++c) {
        priors[c] = static_cast<double>(class_counts_[c]) /
                    static_cast<double>(labels_.size());
    }
    return priors;
}

std::string TransactionDatabase::ItemName(ItemId item) const {
    if (item < item_names_.size() && !item_names_[item].empty()) {
        return item_names_[item];
    }
    return StrFormat("item%u", item);
}

TransactionDatabase TransactionDatabase::FilterByClass(ClassLabel c) const {
    std::vector<std::size_t> rows;
    for (std::size_t t = 0; t < num_transactions(); ++t) {
        if (labels_[t] == c) rows.push_back(t);
    }
    return Subset(rows);
}

TransactionDatabase TransactionDatabase::Subset(
    const std::vector<std::size_t>& rows) const {
    std::vector<std::vector<ItemId>> txns;
    std::vector<ClassLabel> labels;
    txns.reserve(rows.size());
    labels.reserve(rows.size());
    for (std::size_t r : rows) {
        txns.push_back(transactions_[r]);
        labels.push_back(labels_[r]);
    }
    return FromTransactions(std::move(txns), std::move(labels), num_items_,
                            num_classes_, item_names_);
}

}  // namespace dfp
