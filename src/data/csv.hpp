// CSV loading for Dataset.
//
// Columns are auto-typed: a column is numeric iff every cell parses as a
// finite double (an empty cell does not); otherwise it is categorical with
// value codes assigned in first-appearance order. The class column is always
// categorical.
#pragma once

#include <iosfwd>
#include <string>

#include "common/status.hpp"
#include "data/dataset.hpp"

namespace dfp {

struct CsvOptions {
    char delimiter = ',';
    bool has_header = true;
    /// Index of the class column; negative counts from the end (-1 = last).
    int class_column = -1;
};

/// Parses CSV text into a Dataset. Returns ParseError on malformed input.
Result<Dataset> ReadCsv(std::istream& in, const CsvOptions& options = {});

/// Loads a CSV file. Returns NotFound if the file cannot be opened.
Result<Dataset> LoadCsvFile(const std::string& path, const CsvOptions& options = {});

}  // namespace dfp
