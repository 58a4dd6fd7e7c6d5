#include "common/string_util.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace dfp {

std::vector<std::string> Split(std::string_view s, char delim) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = s.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(start));
            break;
        }
        out.emplace_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string_view Trim(std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

bool ParseDouble(std::string_view s, double* out) {
    const std::string buf(Trim(s));
    if (buf.empty()) return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size() || errno == ERANGE || !std::isfinite(v)) {
        return false;
    }
    *out = v;
    return true;
}

bool ParseInt(std::string_view s, long* out) {
    const std::string buf(Trim(s));
    if (buf.empty()) return false;
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(buf.c_str(), &end, 10);
    if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
    *out = v;
    return true;
}

std::string StrFormat(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    }
    va_end(args2);
    return out;
}

}  // namespace dfp
