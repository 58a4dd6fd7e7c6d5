// HDR-style log-linear latency histograms for the live serving path.
//
// The fixed-bucket obs::Histogram is fine for coarse offline timings but
// useless for sub-millisecond serve latencies: a handful of decade buckets
// collapses the entire distribution into one or two cells and p99.9 is
// unrecoverable. HdrHistogram instead covers [min_value, max_value] with
// log-linear buckets — each power-of-two octave is subdivided into S equal
// linear sub-buckets — so every recordable value is representable with a
// bounded RELATIVE error:
//
//     quantile error <= 1 / (2 * subbuckets_per_octave)        (see hdr.cpp)
//
// With the default S = 64 that is <= 0.79% across five orders of magnitude,
// at ~13 KiB of counters per shard.
//
// Recording is sharded per thread: each thread is assigned a shard slot
// round-robin and only ever fetch_adds its own shard's relaxed atomics, so a
// 70k preds/s hot path never bounces one cache line between scoring workers.
// Snapshot() merges the shards into a plain HdrSnapshot, which supports
// quantile queries and cross-snapshot merging (layouts must match).
//
// WindowedHdrHistogram keeps a ring of epoch histograms: Record() lands in
// the current epoch, Rotate() advances the ring and clears the reused slot,
// and TrailingSnapshot() merges the whole ring — a trailing-window view
// covering between (epochs-1) and epochs rotation periods of history.
// Rotation is driven by a WindowFlusher background thread (production) or
// manual Rotate() calls (tests); RotateIfDue() makes concurrent flushers
// harmless.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dfp::obs {

/// Adds `delta` to an atomic double (CAS loop; fetch_add on double is not
/// universally available).
inline void AtomicAdd(std::atomic<double>& target, double delta) {
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
}

struct HdrConfig {
    /// Values below `min_value` clamp into bucket 0; values above `max_value`
    /// clamp into the last bucket. Defaults suit millisecond latencies:
    /// 1 microsecond .. 60 seconds.
    double min_value = 1e-3;
    double max_value = 6e4;
    /// Linear subdivisions per power-of-two octave. Larger = tighter
    /// quantiles, more memory. Must be >= 2.
    std::size_t subbuckets_per_octave = 64;
    /// Recording shards (rounded up to a power of two). 0 = auto: the
    /// hardware concurrency, capped at 16.
    std::size_t shards = 0;
};

/// The bucket geometry shared by live histograms and their snapshots.
struct HdrLayout {
    double min_value = 1e-3;
    std::size_t subbuckets = 64;
    std::size_t num_octaves = 0;
    std::size_t num_buckets = 0;  ///< num_octaves * subbuckets

    static HdrLayout FromConfig(const HdrConfig& config);

    /// Bucket index for `v` (clamped into [0, num_buckets)).
    std::size_t IndexFor(double v) const;
    /// Inclusive lower edge of bucket `idx`.
    double LowerBound(std::size_t idx) const;
    /// Width of bucket `idx`.
    double Width(std::size_t idx) const;
    /// The value reported for observations in bucket `idx` (the midpoint).
    double Representative(std::size_t idx) const {
        return LowerBound(idx) + 0.5 * Width(idx);
    }
    /// Worst-case relative error of Representative() vs any in-range value
    /// recorded into the same bucket: 1 / (2 * subbuckets).
    double RelativeErrorBound() const {
        return 1.0 / (2.0 * static_cast<double>(subbuckets));
    }

    bool SameShapeAs(const HdrLayout& other) const {
        return min_value == other.min_value && subbuckets == other.subbuckets &&
               num_buckets == other.num_buckets;
    }
};

/// Merged, plain-data view of an HdrHistogram. `count` is derived from the
/// bucket counts, so it is always internally consistent; `sum` is tracked
/// separately and may lag the buckets by in-flight observations.
struct HdrSnapshot {
    HdrLayout layout;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;

    bool empty() const { return count == 0; }
    double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

    /// The representative value of the bucket containing the rank
    /// ceil(q * count) (q clamped to [0, 1]); 0 when empty. Accurate to
    /// layout.RelativeErrorBound() for values inside [min_value, max_value].
    double ValueAtQuantile(double q) const;

    /// Accumulates `other` (layouts must be shape-identical; mismatches are
    /// ignored and counted nowhere — callers control both sides).
    void MergeFrom(const HdrSnapshot& other);
};

class HdrHistogram {
  public:
    explicit HdrHistogram(HdrConfig config = {});

    /// Thread-safe, wait-free on the hot path: one relaxed fetch_add into
    /// this thread's shard plus one CAS-loop sum update.
    void Record(double v);

    /// Merges all shards into one snapshot.
    HdrSnapshot Snapshot() const;

    /// Zeroes every shard. Safe against concurrent Record() (all counters
    /// are atomics); an observation racing the reset may survive partially
    /// (bucket kept, sum cleared or vice versa) — acceptable for the
    /// per-run reset this exists for.
    void Reset();

    const HdrLayout& layout() const { return layout_; }

  private:
    struct alignas(64) Shard {
        std::vector<std::atomic<std::uint64_t>> counts;
        std::atomic<double> sum{0.0};
    };

    HdrLayout layout_;
    std::size_t shard_mask_ = 0;
    std::vector<Shard> shards_;
};

/// Ring of epoch HdrHistograms for trailing-window quantiles.
class WindowedHdrHistogram {
  public:
    /// `epochs` ring slots, each covering `epoch_seconds` of wall time once
    /// rotation runs at that period. The trailing window therefore spans
    /// between (epochs-1) and epochs * epoch_seconds of history.
    WindowedHdrHistogram(HdrConfig config, std::size_t epochs,
                         double epoch_seconds);

    /// Records into the current epoch.
    void Record(double v);

    /// Merge of every epoch in the ring.
    HdrSnapshot TrailingSnapshot() const;
    /// Snapshot of the current epoch only (tests).
    HdrSnapshot CurrentEpochSnapshot() const;

    /// Advances the ring: the oldest epoch is cleared and becomes current.
    void Rotate();
    /// Rotate() only if at least epoch_seconds elapsed since the last
    /// rotation — concurrent or overlapping flushers cannot over-rotate.
    /// Returns true when a rotation happened.
    bool RotateIfDue();

    /// Clears every epoch (per-run reset).
    void Reset();

    std::size_t epochs() const { return ring_.size(); }
    double epoch_seconds() const { return epoch_seconds_; }
    const HdrLayout& layout() const { return ring_.front()->layout(); }

  private:
    std::vector<std::unique_ptr<HdrHistogram>> ring_;
    double epoch_seconds_;
    std::atomic<std::size_t> current_{0};
    std::mutex rotate_mu_;                       ///< serializes rotations
    std::atomic<std::int64_t> last_rotate_ns_;   ///< steady-clock ns
};

/// Background rotation driver: wakes every `period_seconds` and calls
/// RotateIfDue() on every target. Stop() (or destruction) joins the thread.
/// Targets are borrowed and must outlive the flusher — in practice they are
/// registry-owned and immortal.
class WindowFlusher {
  public:
    WindowFlusher(std::vector<WindowedHdrHistogram*> targets,
                  double period_seconds);
    ~WindowFlusher();

    WindowFlusher(const WindowFlusher&) = delete;
    WindowFlusher& operator=(const WindowFlusher&) = delete;

    void Stop();

  private:
    std::vector<WindowedHdrHistogram*> targets_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

}  // namespace dfp::obs
