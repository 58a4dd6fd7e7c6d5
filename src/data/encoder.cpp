#include "data/encoder.hpp"

namespace dfp {

Result<ItemEncoder> ItemEncoder::FromSchema(const Dataset& data) {
    if (!data.IsFullyCategorical()) {
        return Status::FailedPrecondition(
            "ItemEncoder requires a fully-categorical dataset; discretize first");
    }
    ItemEncoder enc;
    enc.offsets_.resize(data.num_attributes());
    enc.skipped_.assign(data.num_attributes(), false);
    ItemId next = 0;
    for (std::size_t a = 0; a < data.num_attributes(); ++a) {
        const Attribute& attr = data.attribute(a);
        enc.offsets_[a] = next;
        // Constant attributes (e.g. a numeric column the MDL discretizer
        // refused to cut) carry no information: the single (att, val) item
        // would appear in every transaction and bloat every closed pattern.
        if (attr.arity() < 2) {
            enc.skipped_[a] = true;
            continue;
        }
        for (const std::string& v : attr.values) {
            enc.item_names_.push_back(attr.name + "=" + v);
        }
        next += static_cast<ItemId>(attr.arity());
    }
    return enc;
}

std::vector<ItemId> ItemEncoder::EncodeRow(const Dataset& data, std::size_t row) const {
    std::vector<ItemId> items;
    items.reserve(data.num_attributes());
    for (std::size_t a = 0; a < data.num_attributes(); ++a) {
        if (skipped_[a]) continue;
        items.push_back(Encode(a, data.Code(row, a)));
    }
    // One item per attribute and attributes are offset-ordered, so the list is
    // already sorted ascending.
    return items;
}

}  // namespace dfp
