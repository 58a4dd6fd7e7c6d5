#include "obs/metrics.hpp"

#include <algorithm>

namespace dfp::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    if (bounds_.empty()) bounds_ = DefaultBounds();
    counts_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

std::vector<double> Histogram::DefaultBounds() {
    return {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0};
}

void Histogram::Observe(double v) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    AtomicAdd(sum_, v);
}

void Histogram::ObserveBatch(std::span<const double> values) {
    if (values.empty()) return;
    std::vector<std::uint64_t> local(counts_.size(), 0);
    double sum = 0.0;
    for (double v : values) {
        const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
        ++local[static_cast<std::size_t>(it - bounds_.begin())];
        sum += v;
    }
    for (std::size_t b = 0; b < local.size(); ++b) {
        if (local[b] != 0) counts_[b].fetch_add(local[b], std::memory_order_relaxed);
    }
    AtomicAdd(sum_, sum);
}

HistogramData Histogram::Read() const {
    HistogramData data;
    data.bounds = bounds_;
    data.bucket_counts.reserve(counts_.size());
    std::uint64_t count = 0;
    for (const auto& c : counts_) {
        const std::uint64_t loaded = c.load(std::memory_order_relaxed);
        data.bucket_counts.push_back(loaded);
        count += loaded;
    }
    // `count` is derived from the buckets just loaded, so it can never
    // disagree with them (the old independent count cell could). `sum` is
    // best-effort under concurrency; clamp states that are provably torn.
    data.count = count;
    const double sum = sum_.load(std::memory_order_relaxed);
    data.sum = (count == 0 || sum < 0.0) ? 0.0 : sum;
    return data;
}

void Histogram::Reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::Get() {
    static Registry* registry = new Registry();  // never destroyed: metric
    return *registry;                            // refs outlive static teardown
}

Counter& Registry::GetCounter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string(name), std::make_unique<Counter>())
                 .first;
    }
    return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
    }
    return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  std::vector<double> bounds) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(std::string(name),
                          std::make_unique<Histogram>(std::move(bounds)))
                 .first;
    }
    return *it->second;
}

WindowedHdrHistogram& Registry::GetWindowedHdr(std::string_view name,
                                               HdrConfig config,
                                               std::size_t epochs,
                                               double epoch_seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = windows_.find(name);
    if (it == windows_.end()) {
        it = windows_
                 .emplace(std::string(name),
                          std::make_unique<WindowedHdrHistogram>(
                              config, epochs, epoch_seconds))
                 .first;
    }
    return *it->second;
}

MetricsSnapshot Registry::Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot snap;
    for (const auto& [name, counter] : counters_) {
        snap.counters.emplace(name, counter->value());
    }
    for (const auto& [name, gauge] : gauges_) {
        snap.gauges.emplace(name, gauge->value());
    }
    for (const auto& [name, hist] : histograms_) {
        snap.histograms.emplace(name, hist->Read());
    }
    for (const auto& [name, window] : windows_) {
        snap.windows.emplace(name, window->TrailingSnapshot());
    }
    return snap;
}

void Registry::ResetValues() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, counter] : counters_) counter->Reset();
    for (auto& [name, gauge] : gauges_) gauge->Reset();
    for (auto& [name, hist] : histograms_) hist->Reset();
    for (auto& [name, window] : windows_) window->Reset();
}

}  // namespace dfp::obs
