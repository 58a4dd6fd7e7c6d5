// Class-labelled transaction database — the representation mined by src/fpm.
//
// Holds horizontal transactions (sorted item lists), per-item vertical cover
// bit vectors (for fast support counting and pattern-cover computation),
// per-class cover bit vectors (for per-class mining and the discriminative
// measures), and each item's class counts |T(i) ∩ D_c| (the class counts of
// the learners' item columns, counted once per database that is trained on).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "data/dataset.hpp"
#include "data/encoder.hpp"

namespace dfp {

/// Immutable-after-build transaction database with labels and vertical index.
class TransactionDatabase {
  public:
    TransactionDatabase() = default;

    /// Builds from a fully-categorical dataset via the given encoder.
    static TransactionDatabase FromDataset(const Dataset& data,
                                           const ItemEncoder& encoder);

    /// Builds directly from raw transactions. Item ids must be < num_items;
    /// labels must be < num_classes. Transactions are sorted and deduplicated.
    static TransactionDatabase FromTransactions(
        std::vector<std::vector<ItemId>> transactions, std::vector<ClassLabel> labels,
        std::size_t num_items, std::size_t num_classes,
        std::vector<std::string> item_names = {});

    std::size_t num_transactions() const { return labels_.size(); }
    std::size_t num_items() const { return num_items_; }
    std::size_t num_classes() const { return num_classes_; }

    const std::vector<ItemId>& transaction(std::size_t t) const {
        return transactions_[t];
    }
    const std::vector<std::vector<ItemId>>& transactions() const {
        return transactions_;
    }
    ClassLabel label(std::size_t t) const { return labels_[t]; }
    const std::vector<ClassLabel>& labels() const { return labels_; }

    /// Rows containing `item`.
    const BitVector& ItemCover(ItemId item) const { return item_covers_[item]; }
    /// Rows labelled with class `c`.
    const BitVector& ClassCover(ClassLabel c) const { return class_covers_[c]; }

    /// Item class counts: entry [i · num_classes() + c] is
    /// ItemCover(i).AndCount(ClassCover(c)), the class counts of a learner's
    /// item columns. Counted on the first call and kept, once per database
    /// (copies share it), so a database that is only mined (a FilterByClass
    /// partition) or only tested never pays for it. Safe to call from
    /// several threads at once.
    const std::vector<std::size_t>& ItemClassCounts() const;

    /// Absolute support of `item`.
    std::size_t ItemSupport(ItemId item) const { return item_covers_[item].Count(); }

    /// Cover of an itemset (intersection of item covers). Empty itemset covers
    /// every transaction.
    BitVector CoverOf(const std::vector<ItemId>& items) const;
    /// Absolute support of an itemset.
    std::size_t SupportOf(const std::vector<ItemId>& items) const;
    /// Per-class counts of a cover set.
    std::vector<std::size_t> ClassCountsOf(const BitVector& cover) const;

    /// Per-class transaction counts (cached when the indexes are built).
    const std::vector<std::size_t>& ClassCounts() const {
        return class_counts_;
    }
    /// Per-class fractions.
    std::vector<double> ClassPriors() const;

    /// "attr=val" name of an item (falls back to "item<i>").
    std::string ItemName(ItemId item) const;

    /// New database with only the transactions of class `c` (labels kept).
    TransactionDatabase FilterByClass(ClassLabel c) const;
    /// New database with the selected rows, in order.
    TransactionDatabase Subset(const std::vector<std::size_t>& rows) const;

  private:
    void BuildIndexes();

    std::size_t num_items_ = 0;
    std::size_t num_classes_ = 0;
    std::vector<std::vector<ItemId>> transactions_;
    std::vector<ClassLabel> labels_;
    std::vector<std::string> item_names_;
    std::vector<BitVector> item_covers_;
    std::vector<BitVector> class_covers_;
    std::vector<std::size_t> class_counts_;
    /// The ItemClassCounts table and the flag that guards its one count.
    /// Shared by copies: the database is immutable once its indexes are
    /// built. Null only before BuildIndexes (a default-constructed database).
    struct LazyCounts {
        std::once_flag once;
        std::vector<std::size_t> counts;
    };
    std::shared_ptr<LazyCounts> item_class_counts_;
};

}  // namespace dfp
