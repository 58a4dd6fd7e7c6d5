#include "data/csv.hpp"

#include <fstream>
#include <sstream>

#include "common/string_util.hpp"

namespace dfp {

namespace {

// Resolves a possibly-negative class column index against a column count.
Result<std::size_t> ResolveClassColumn(int class_column, std::size_t num_columns) {
    long idx = class_column;
    if (idx < 0) idx += static_cast<long>(num_columns);
    if (idx < 0 || idx >= static_cast<long>(num_columns)) {
        return Status::InvalidArgument(
            StrFormat("class column %d out of range for %zu columns", class_column,
                      num_columns));
    }
    return static_cast<std::size_t>(idx);
}

}  // namespace

Result<Dataset> ReadCsv(std::istream& in, const CsvOptions& options) {
    std::vector<std::vector<std::string>> rows;
    std::string line;
    std::size_t num_columns = 0;
    while (std::getline(in, line)) {
        if (Trim(line).empty()) continue;
        auto fields = Split(line, options.delimiter);
        for (auto& f : fields) f = std::string(Trim(f));
        if (num_columns == 0) {
            num_columns = fields.size();
        } else if (fields.size() != num_columns) {
            return Status::ParseError(
                StrFormat("row %zu has %zu fields, expected %zu", rows.size() + 1,
                          fields.size(), num_columns));
        }
        rows.push_back(std::move(fields));
    }
    if (rows.empty()) return Status::ParseError("empty CSV input");
    if (num_columns < 2) {
        return Status::ParseError("CSV needs at least one attribute and a class column");
    }

    std::vector<std::string> header;
    if (options.has_header) {
        header = rows.front();
        rows.erase(rows.begin());
        if (rows.empty()) return Status::ParseError("CSV has a header but no data rows");
    } else {
        for (std::size_t c = 0; c < num_columns; ++c) {
            header.push_back(StrFormat("col%zu", c));
        }
    }

    auto class_col_result = ResolveClassColumn(options.class_column, num_columns);
    if (!class_col_result.ok()) return class_col_result.status();
    const std::size_t class_col = *class_col_result;

    // Type inference: numeric iff every cell parses as double.
    std::vector<bool> numeric(num_columns, true);
    for (const auto& row : rows) {
        for (std::size_t c = 0; c < num_columns; ++c) {
            double v = 0.0;
            if (!ParseDouble(row[c], &v)) numeric[c] = false;
        }
    }
    numeric[class_col] = false;

    std::vector<Attribute> schema;
    std::vector<std::size_t> attr_cols;
    for (std::size_t c = 0; c < num_columns; ++c) {
        if (c == class_col) continue;
        Attribute a;
        a.name = header[c];
        a.type = numeric[c] ? AttributeType::kNumeric : AttributeType::kCategorical;
        schema.push_back(std::move(a));
        attr_cols.push_back(c);
    }

    // Collect class names in first-appearance order.
    std::vector<std::string> class_names;
    auto class_code = [&class_names](const std::string& name) -> ClassLabel {
        for (std::size_t i = 0; i < class_names.size(); ++i) {
            if (class_names[i] == name) return static_cast<ClassLabel>(i);
        }
        class_names.push_back(name);
        return static_cast<ClassLabel>(class_names.size() - 1);
    };
    std::vector<ClassLabel> labels;
    labels.reserve(rows.size());
    for (const auto& row : rows) labels.push_back(class_code(row[class_col]));

    Dataset data(std::move(schema), class_names);
    std::vector<double> values(attr_cols.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t a = 0; a < attr_cols.size(); ++a) {
            const std::string& cell = rows[r][attr_cols[a]];
            if (data.attribute(a).type == AttributeType::kNumeric) {
                double v = 0.0;
                if (!ParseDouble(cell, &v)) {
                    return Status::ParseError(
                        StrFormat("row %zu: '%s' is not numeric", r + 1, cell.c_str()));
                }
                values[a] = v;
            } else {
                values[a] = data.AddAttributeValue(a, cell);
            }
        }
        DFP_RETURN_NOT_OK(data.AddRow(values, labels[r]));
    }
    return data;
}

Result<Dataset> LoadCsvFile(const std::string& path, const CsvOptions& options) {
    std::ifstream in(path);
    if (!in) return Status::NotFound("cannot open file: " + path);
    return ReadCsv(in, options);
}

Status WriteCsv(const Dataset& data, std::ostream& out, char delimiter) {
    for (std::size_t a = 0; a < data.num_attributes(); ++a) {
        out << data.attribute(a).name << delimiter;
    }
    out << "class\n";
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
        for (std::size_t a = 0; a < data.num_attributes(); ++a) {
            out << data.CellToString(r, a) << delimiter;
        }
        out << data.class_names()[data.label(r)] << "\n";
    }
    if (!out) return Status::Internal("CSV write failed");
    return Status::Ok();
}

}  // namespace dfp
