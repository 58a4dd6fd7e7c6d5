// Counter/gauge/histogram semantics, snapshot isolation, concurrent updates.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace dfp::obs {
namespace {

TEST(ObsCounterTest, IncrementsAndResets) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.Inc();
    c.Inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.Reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGaugeTest, SetAddAndReset) {
    Gauge g;
    g.Set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.Add(0.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    g.Set(-1.0);  // last write wins
    EXPECT_DOUBLE_EQ(g.value(), -1.0);
    g.Reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsHistogramTest, BucketsObservationsByUpperBound) {
    Histogram h({1.0, 10.0, 100.0});
    h.Observe(0.5);    // <= 1      -> bucket 0
    h.Observe(1.0);    // <= 1      -> bucket 0 (bounds are inclusive)
    h.Observe(5.0);    // <= 10     -> bucket 1
    h.Observe(1000.0); // overflow  -> bucket 3
    const HistogramData data = h.Read();
    ASSERT_EQ(data.bucket_counts.size(), 4u);
    EXPECT_EQ(data.bucket_counts[0], 2u);
    EXPECT_EQ(data.bucket_counts[1], 1u);
    EXPECT_EQ(data.bucket_counts[2], 0u);
    EXPECT_EQ(data.bucket_counts[3], 1u);
    EXPECT_EQ(data.count, 4u);
    EXPECT_DOUBLE_EQ(data.sum, 1006.5);
    h.Reset();
    EXPECT_EQ(h.Read().count, 0u);
}

TEST(ObsHistogramTest, ObserveBatchBucketsLikeObserve) {
    const std::vector<double> bounds = {1e-10, 1e-6, 1e-4, 0.001, 0.01, 0.05,
                                        0.1, 0.5};
    // Values on, between and beyond the bounds, including repeats.
    const std::vector<double> values = {0.0,  1e-10, 3e-7, 1e-4, 0.002, 0.05,
                                        0.05, 0.07,  0.1,  0.3,  0.5,   0.9,
                                        1.0,  2e-12, 0.01, 0.5};
    Histogram one_by_one(bounds);
    for (double v : values) one_by_one.Observe(v);
    Histogram batched(bounds);
    batched.ObserveBatch(values);
    batched.ObserveBatch({});  // an empty batch changes nothing
    const HistogramData want = one_by_one.Read();
    const HistogramData got = batched.Read();
    EXPECT_EQ(got.bucket_counts, want.bucket_counts);
    EXPECT_EQ(got.count, values.size());
    EXPECT_DOUBLE_EQ(got.sum, want.sum);
}

TEST(ObsHistogramTest, EmptyBoundsFallBackToDefaults) {
    Histogram h({});
    const HistogramData data = h.Read();
    EXPECT_EQ(data.bounds, Histogram::DefaultBounds());
    EXPECT_EQ(data.bucket_counts.size(), data.bounds.size() + 1);
}

TEST(ObsRegistryTest, ReturnsStableReferencesByName) {
    auto& registry = Registry::Get();
    Counter& a = registry.GetCounter("dfp.test.registry.stable");
    Counter& b = registry.GetCounter("dfp.test.registry.stable");
    EXPECT_EQ(&a, &b);
    Gauge& g1 = registry.GetGauge("dfp.test.registry.stable");  // distinct kind
    Gauge& g2 = registry.GetGauge("dfp.test.registry.stable");
    EXPECT_EQ(&g1, &g2);
}

TEST(ObsRegistryTest, SnapshotIsAnIsolatedCopy) {
    auto& registry = Registry::Get();
    Counter& c = registry.GetCounter("dfp.test.snapshot.counter");
    c.Reset();
    c.Inc(7);
    const MetricsSnapshot snap = registry.Snapshot();
    ASSERT_TRUE(snap.counters.contains("dfp.test.snapshot.counter"));
    EXPECT_EQ(snap.counters.at("dfp.test.snapshot.counter"), 7u);
    // Mutating the live metric must not change the already-taken snapshot.
    c.Inc(100);
    EXPECT_EQ(snap.counters.at("dfp.test.snapshot.counter"), 7u);
    EXPECT_EQ(registry.Snapshot().counters.at("dfp.test.snapshot.counter"),
              107u);
}

TEST(ObsRegistryTest, HistogramBoundsFixedAtFirstRegistration) {
    auto& registry = Registry::Get();
    Histogram& h1 =
        registry.GetHistogram("dfp.test.hist.bounds", {1.0, 2.0});
    Histogram& h2 =
        registry.GetHistogram("dfp.test.hist.bounds", {99.0});  // ignored
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.Read().bounds, (std::vector<double>{1.0, 2.0}));
}

TEST(ObsRegistryTest, ResetValuesKeepsNamesButZeroes) {
    auto& registry = Registry::Get();
    registry.GetCounter("dfp.test.reset.counter").Inc(5);
    registry.GetGauge("dfp.test.reset.gauge").Set(5.0);
    registry.ResetValues();
    const MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.counters.at("dfp.test.reset.counter"), 0u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("dfp.test.reset.gauge"), 0.0);
}

TEST(ObsRegistryTest, ConcurrentIncrementsAreLossless) {
    auto& registry = Registry::Get();
    Counter& c = registry.GetCounter("dfp.test.concurrent.counter");
    c.Reset();
    Histogram& h = registry.GetHistogram("dfp.test.concurrent.hist", {0.5});
    h.Reset();
    constexpr int kThreads = 8;
    constexpr int kIncrements = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c, &h] {
            for (int i = 0; i < kIncrements; ++i) {
                c.Inc();
                h.Observe(i % 2 == 0 ? 0.25 : 1.0);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
    const HistogramData data = h.Read();
    EXPECT_EQ(data.count, static_cast<std::uint64_t>(kThreads) * kIncrements);
    EXPECT_EQ(data.bucket_counts[0] + data.bucket_counts[1], data.count);
}

// Regression: Histogram::Read() used to load `count`, `sum`, and the bucket
// array independently, so a snapshot taken during a concurrent Observe could
// report count != sum-of-buckets. Read() now derives count/sum from the same
// bucket loads, so every snapshot is internally consistent even while
// writers are mid-Observe. Run under TSan (DFP_SANITIZE=tsan) to also prove
// the accesses are race-annotated, not just numerically coherent.
TEST(ObsHistogramTest, ReadIsInternallyConsistentUnderConcurrentObserve) {
    Histogram h({0.5, 5.0});
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&h, &stop] {
            int i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                h.Observe(i++ % 3 == 0 ? 0.25 : 1.0);
            }
        });
    }
    for (int round = 0; round < 2000; ++round) {
        const HistogramData data = h.Read();
        std::uint64_t bucket_total = 0;
        for (const std::uint64_t b : data.bucket_counts) bucket_total += b;
        // The invariant the exporters rely on: +Inf bucket == _count.
        EXPECT_EQ(bucket_total, data.count) << "round " << round;
    }
    stop.store(true);
    for (auto& w : writers) w.join();
}

// Regression: Registry::ResetValues() used to zero count/sum/buckets as
// separate non-atomic stores, racing with Observe. It now goes through the
// same atomic slots as Observe/Read, so resetting while writers are active
// is safe (the final totals are unknowable mid-race, but every intermediate
// Read stays consistent and nothing crashes or tears under TSan).
TEST(ObsRegistryTest, ResetValuesIsSafeAgainstConcurrentObserve) {
    auto& registry = Registry::Get();
    Histogram& h =
        registry.GetHistogram("dfp.test.reset.race.hist", {0.5, 5.0});
    Counter& c = registry.GetCounter("dfp.test.reset.race.counter");
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&h, &c, &stop] {
            int i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                h.Observe(i++ % 2 == 0 ? 0.25 : 10.0);
                c.Inc();
            }
        });
    }
    for (int round = 0; round < 500; ++round) {
        registry.ResetValues();
        const HistogramData data = h.Read();
        std::uint64_t bucket_total = 0;
        for (const std::uint64_t b : data.bucket_counts) bucket_total += b;
        EXPECT_EQ(bucket_total, data.count) << "round " << round;
    }
    stop.store(true);
    for (auto& w : writers) w.join();
    registry.ResetValues();
    EXPECT_EQ(h.Read().count, 0u);
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsRegistryTest, ConcurrentRegistrationReturnsOneMetricPerName) {
    auto& registry = Registry::Get();
    constexpr int kThreads = 8;
    std::vector<Counter*> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, &seen, t] {
            seen[static_cast<std::size_t>(t)] =
                &registry.GetCounter("dfp.test.concurrent.registration");
        });
    }
    for (auto& t : threads) t.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
    }
}

}  // namespace
}  // namespace dfp::obs
