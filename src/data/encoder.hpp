// (attribute, value) → item mapping (Section 2 of the paper).
//
// Every pair (att, val) of a fully-categorical dataset is mapped to a distinct
// item o_i ∈ I. A row then becomes the set of items it satisfies — exactly one
// item per attribute — turning the table into a transaction database over
// which frequent itemsets are mined.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "data/dataset.hpp"

namespace dfp {

using ItemId = std::uint32_t;

/// Mapping from (attribute, value-code) pairs to item ids.
/// Item ids are dense: 0..num_items()-1, ordered by (attribute, value).
class ItemEncoder {
  public:
    ItemEncoder() = default;

    /// Builds the mapping from a fully-categorical schema. Constant
    /// attributes (arity < 2) are skipped — they would map to an item present
    /// in every transaction, which carries no information and pollutes every
    /// closed pattern. Returns FailedPrecondition if any attribute is numeric.
    static Result<ItemEncoder> FromSchema(const Dataset& data);

    /// True if attribute `attr` produces no items (constant column).
    bool IsSkipped(std::size_t attr) const { return skipped_[attr]; }

    std::size_t num_items() const { return item_names_.size(); }
    std::size_t num_attributes() const { return offsets_.size(); }

    /// Item id for (attribute, value-code).
    ItemId Encode(std::size_t attr, std::uint32_t code) const {
        return offsets_[attr] + code;
    }

    /// "attribute=value" display name of an item.
    const std::string& ItemName(ItemId item) const { return item_names_[item]; }

    /// Encodes one row into its (sorted) item list: one item per attribute.
    std::vector<ItemId> EncodeRow(const Dataset& data, std::size_t row) const;

  private:
    std::vector<ItemId> offsets_;         // first item id of each attribute
    std::vector<bool> skipped_;            // constant attributes (no items)
    std::vector<std::string> item_names_;  // display names, by item id
};

}  // namespace dfp
