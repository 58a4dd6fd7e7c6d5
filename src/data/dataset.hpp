// Tabular dataset representation (the paper's relational-data setting).
//
// A Dataset is a schema of categorical/numeric attributes plus a class label
// per row. Categorical cells store a value code (index into the attribute's
// value-name list); numeric cells store the raw double. The frequent-pattern
// pipeline first discretizes numeric attributes (Discretizer) and then maps
// every (attribute, value) pair to an item (ItemEncoder), exactly as in
// Section 2 of the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace dfp {

using ClassLabel = std::uint32_t;

enum class AttributeType { kCategorical, kNumeric };

/// Schema entry for one column.
struct Attribute {
    std::string name;
    AttributeType type = AttributeType::kCategorical;
    /// Value names for categorical attributes; index == value code.
    std::vector<std::string> values;

    std::size_t arity() const { return values.size(); }
};

/// Column-major table of attribute values with one class label per row.
class Dataset {
  public:
    Dataset() = default;

    /// Creates an empty dataset with the given schema and class names.
    Dataset(std::vector<Attribute> attributes, std::vector<std::string> class_names);

    std::size_t num_rows() const { return labels_.size(); }
    std::size_t num_attributes() const { return attributes_.size(); }
    std::size_t num_classes() const { return class_names_.size(); }

    const std::vector<Attribute>& attributes() const { return attributes_; }
    const Attribute& attribute(std::size_t a) const { return attributes_[a]; }
    const std::vector<std::string>& class_names() const { return class_names_; }
    const std::vector<ClassLabel>& labels() const { return labels_; }
    ClassLabel label(std::size_t row) const { return labels_[row]; }

    /// Raw cell value: value code for categorical, measurement for numeric.
    double Value(std::size_t row, std::size_t attr) const {
        return columns_[attr][row];
    }
    /// Categorical value code of a cell; attribute must be categorical.
    std::uint32_t Code(std::size_t row, std::size_t attr) const {
        return static_cast<std::uint32_t>(columns_[attr][row]);
    }

    /// Appends a row. `values` must have one entry per attribute (codes for
    /// categorical attributes). Returns InvalidArgument on arity mismatch or
    /// out-of-range code/label.
    Status AddRow(const std::vector<double>& values, ClassLabel label);

    /// True if every attribute is categorical.
    bool IsFullyCategorical() const;

  private:
    std::vector<Attribute> attributes_;
    std::vector<std::string> class_names_;
    std::vector<std::vector<double>> columns_;  // columns_[attr][row]
    std::vector<ClassLabel> labels_;
};

}  // namespace dfp
