// String helpers used by the CSV loader and the table printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dfp {

/// Splits on a single delimiter character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` parses fully as a finite double; stores it in *out.
bool ParseDouble(std::string_view s, double* out);

/// True if `s` parses fully as a long; stores it in *out.
bool ParseInt(std::string_view s, long* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace dfp
