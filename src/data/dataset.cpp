#include "data/dataset.hpp"

#include <algorithm>

#include "common/string_util.hpp"

namespace dfp {

Dataset::Dataset(std::vector<Attribute> attributes, std::vector<std::string> class_names)
    : attributes_(std::move(attributes)),
      class_names_(std::move(class_names)),
      columns_(attributes_.size()) {}

Status Dataset::AddRow(const std::vector<double>& values, ClassLabel label) {
    if (values.size() != attributes_.size()) {
        return Status::InvalidArgument(StrFormat(
            "row has %zu values, schema has %zu attributes", values.size(),
            attributes_.size()));
    }
    if (label >= class_names_.size()) {
        return Status::InvalidArgument(
            StrFormat("label %u out of range (%zu classes)", label, class_names_.size()));
    }
    for (std::size_t a = 0; a < attributes_.size(); ++a) {
        if (attributes_[a].type == AttributeType::kCategorical) {
            const auto code = static_cast<std::size_t>(values[a]);
            if (values[a] < 0 || code >= attributes_[a].arity()) {
                return Status::InvalidArgument(StrFormat(
                    "value code %.0f out of range for attribute '%s' (arity %zu)",
                    values[a], attributes_[a].name.c_str(), attributes_[a].arity()));
            }
        }
    }
    for (std::size_t a = 0; a < attributes_.size(); ++a) {
        columns_[a].push_back(values[a]);
    }
    labels_.push_back(label);
    return Status::Ok();
}

bool Dataset::IsFullyCategorical() const {
    return std::all_of(attributes_.begin(), attributes_.end(), [](const Attribute& a) {
        return a.type == AttributeType::kCategorical;
    });
}

}  // namespace dfp
