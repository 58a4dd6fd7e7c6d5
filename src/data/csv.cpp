#include "data/csv.hpp"

#include <algorithm>
#include <fstream>

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

// Code of `name` in `names`, appended on first sight: codes follow first
// appearance.
std::uint32_t CodeOf(std::vector<std::string>* names, const std::string& name) {
    const auto it = std::find(names->begin(), names->end(), name);
    if (it != names->end()) return static_cast<std::uint32_t>(it - names->begin());
    names->push_back(name);
    return static_cast<std::uint32_t>(names->size() - 1);
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

    std::vector<std::string> class_names;
    std::vector<ClassLabel> labels;
    labels.reserve(rows.size());
    for (const auto& row : rows) labels.push_back(CodeOf(&class_names, row[class_col]));

    // Row-major cell values; the value names of categorical attributes are
    // collected into the schema first, so the dataset is built whole.
    const std::size_t num_attrs = attr_cols.size();
    std::vector<double> cells(rows.size() * num_attrs);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t a = 0; a < num_attrs; ++a) {
            const std::string& cell = rows[r][attr_cols[a]];
            double& value = cells[r * num_attrs + a];
            if (schema[a].type == AttributeType::kNumeric) {
                if (!ParseDouble(cell, &value)) {
                    return Status::ParseError(
                        StrFormat("row %zu: '%s' is not numeric", r + 1, cell.c_str()));
                }
            } else {
                value = CodeOf(&schema[a].values, cell);
            }
        }
    }

    Dataset data(std::move(schema), std::move(class_names));
    std::vector<double> values(num_attrs);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::copy_n(cells.begin() + r * num_attrs, num_attrs, values.begin());
        DFP_RETURN_NOT_OK(data.AddRow(values, labels[r]));
    }
    return data;
}

Result<Dataset> LoadCsvFile(const std::string& path, const CsvOptions& options) {
    std::ifstream in(path);
    if (!in) return Status::NotFound("cannot open file: " + path);
    return ReadCsv(in, options);
}

}  // namespace dfp
