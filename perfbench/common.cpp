#include "common.hpp"

#include <cpuid.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {

Metrics::Metrics(bool per_layer) {
    if (per_layer) {
        for (const MetricSpec& spec : kPerLayer) values_.emplace_back(spec, 0.0);
    } else {
        for (const MetricSpec& spec : kEndToEnd) values_.emplace_back(spec, 0.0);
    }
}

void Metrics::Set(std::string_view name, double value) {
    for (auto& [spec, v] : values_) {
        if (name == spec.name) {
            v = value;
            return;
        }
    }
    std::fprintf(stderr, "perfbench: metric '%.*s' is not in this table\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
}

std::string Metrics::ToJson() const {
    std::string out = "{";
    for (std::size_t i = 0; i < values_.size(); ++i) {
        if (i > 0) out += ", ";
        out += JsonString(values_[i].first.name);
        out += ": {\"value\": " + JsonNumber(values_[i].second) +
               ", \"unit\": " + JsonString(values_[i].first.unit) + "}";
    }
    return out + "}";
}

void Outcome::Fail(std::string why, std::uint64_t ops) {
    failed += ops;
    if (errors.size() < 16) errors.push_back(std::move(why));
}

std::string JsonString(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string JsonNumber(double v) {
    if (!std::isfinite(v)) return "null";
    // Shortest representation that round-trips: every measured digit kept.
    char buf[64];
    const auto result = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, result.ptr);
}

unsigned HardwareThreads() { return std::thread::hardware_concurrency(); }

std::string CpuModel() {
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
        __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    return first == std::string::npos ? "unknown"
                                      : model.substr(first, last - first + 1);
}

namespace {

double ClockSeconds(clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
    return values[rank - 1];
}

std::string LatencySummary(const std::vector<double>& values) {
    std::string out = "{";
    for (const auto& [name, q] : {std::pair{"min", 0.0}, {"p10", 0.1}, {"p25", 0.25},
                                  {"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99},
                                  {"max", 1.0}}) {
        out += JsonString(name) + ": " + JsonNumber(Percentile(values, q)) + ", ";
    }
    return out + "\"samples\": " + std::to_string(values.size()) + "}";
}

}  // namespace perfbench
