// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms, cheap enough for hot loops.
//
// Design:
//  * Metric objects live forever once registered; `GetCounter` et al. return a
//    stable reference, so hot paths resolve a metric once (static local or a
//    member) and then touch only a relaxed atomic per update. Tighter loops
//    should accumulate into a plain local and flush once per call — that is
//    what the miners and the SMO solver do.
//  * Reads take a consistent-enough `Snapshot()` copy; writers are never
//    blocked by readers (the registry mutex only guards the name maps).
//  * Names follow `dfp.<module>.<metric>` (see DESIGN.md "Observability").
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/hdr.hpp"  // HdrHistogram / WindowedHdrHistogram + AtomicAdd

namespace dfp::obs {

/// Monotonically increasing event count.
class Counter {
  public:
    void Inc(std::uint64_t delta = 1) {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void Reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (sizes, seconds, ratios).
class Gauge {
  public:
    void Set(double v) { value_.store(v, std::memory_order_relaxed); }
    void Add(double delta) { AtomicAdd(value_, delta); }
    double value() const { return value_.load(std::memory_order_relaxed); }
    void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/// Plain-data view of a histogram for snapshots and serialization.
struct HistogramData {
    /// Ascending upper bounds; bucket i counts observations <= bounds[i].
    std::vector<double> bounds;
    /// bounds.size() + 1 entries; the last bucket counts v > bounds.back().
    std::vector<std::uint64_t> bucket_counts;
    std::uint64_t count = 0;
    double sum = 0.0;
};

/// Fixed-bucket histogram. Bucket layout is immutable after registration.
///
/// Consistency under concurrent Observe(): `count` is DERIVED from the
/// bucket counts at Read() time (there is no separate count cell to tear),
/// so count == sum(bucket_counts) holds in every snapshot. `sum` is tracked
/// in an independent atomic and may lag the buckets by observations that
/// were mid-flight during the read; Read() clamps the obviously-torn states
/// (negative sum, nonzero sum with zero count) and otherwise reports it
/// as-is — it is an approximation under concurrency, not a ledger.
class Histogram {
  public:
    /// `bounds` must be ascending; empty falls back to DefaultBounds().
    explicit Histogram(std::vector<double> bounds);

    void Observe(double v);
    /// Observes every value: the values are bucketed locally, then each
    /// touched bucket takes one atomic add and the sum one. Bucket counts
    /// equal those of one Observe per value; the sum is the batch's sum added
    /// once, so its last bits may differ from a value-by-value sum.
    void ObserveBatch(std::span<const double> values);
    HistogramData Read() const;
    void Reset();

    /// Decade bounds 0.001 .. 1000 — a sane default for seconds and gains.
    static std::vector<double> DefaultBounds();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
    std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;
    /// Windowed HDR histograms: the TRAILING-WINDOW merge, not all-time.
    std::map<std::string, HdrSnapshot> windows;

    std::size_t TotalMetrics() const {
        return counters.size() + gauges.size() + histograms.size() +
               windows.size();
    }
};

/// Global metric registry. Thread-safe; lookups lock only the name maps.
class Registry {
  public:
    static Registry& Get();

    /// Returns the metric registered under `name`, creating it on first use.
    /// References stay valid for the process lifetime.
    Counter& GetCounter(std::string_view name);
    Gauge& GetGauge(std::string_view name);
    /// `bounds` is only consulted on first registration of `name`.
    Histogram& GetHistogram(std::string_view name,
                            std::vector<double> bounds = {});
    /// Trailing-window HDR histogram (ring of `epochs` shards rotated every
    /// `epoch_seconds` by whoever drives rotation — see WindowFlusher).
    /// Config/epoch parameters are only consulted on first registration.
    WindowedHdrHistogram& GetWindowedHdr(std::string_view name,
                                         HdrConfig config = {},
                                         std::size_t epochs = 8,
                                         double epoch_seconds = 1.25);

    /// Copies all current values.
    MetricsSnapshot Snapshot() const;

    /// Zeroes every metric (names stay registered). Safe against concurrent
    /// Observe()/Record(): every cell is an atomic, so this never races —
    /// but an observation in flight during the reset may survive partially
    /// (e.g. its bucket increment wiped, its sum contribution kept). Reads
    /// clamp the torn combinations; per-run reports accept the slack.
    void ResetValues();

  private:
    Registry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
    std::map<std::string, std::unique_ptr<WindowedHdrHistogram>, std::less<>>
        windows_;
};

}  // namespace dfp::obs
