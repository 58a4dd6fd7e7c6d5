#include "stream/streaming_db.hpp"

#include <algorithm>

#include "common/string_util.hpp"
#include "obs/metrics.hpp"

namespace dfp::stream {

namespace {

// The registry metrics an append updates, resolved once per process.
struct StreamMeters {
    obs::Counter& appended;
    obs::Counter& evicted;
    obs::Gauge& window_size;
    obs::Gauge& version;
};

const StreamMeters& Meters() {
    static const StreamMeters meters = [] {
        auto& reg = obs::Registry::Get();
        return StreamMeters{
            reg.GetCounter("dfp.stream.appended_total"),
            reg.GetCounter("dfp.stream.evicted_total"),
            reg.GetGauge("dfp.stream.window_size"),
            reg.GetGauge("dfp.stream.version"),
        };
    }();
    return meters;
}

}  // namespace

StreamingDatabase::StreamingDatabase(StreamConfig config) : config_(config) {}

Status StreamingDatabase::ValidateConfig(const StreamConfig& config) {
    if (config.num_items == 0) {
        return Status::InvalidArgument("stream config needs num_items > 0");
    }
    if (config.num_classes == 0) {
        return Status::InvalidArgument("stream config needs num_classes > 0");
    }
    if (config.window_capacity == 0) {
        return Status::InvalidArgument(
            "stream config needs window_capacity > 0");
    }
    return Status::Ok();
}

Result<std::unique_ptr<StreamingDatabase>> StreamingDatabase::Create(
    StreamConfig config) {
    DFP_RETURN_NOT_OK(ValidateConfig(config));
    return std::make_unique<StreamingDatabase>(config);
}

Result<AppendResult> StreamingDatabase::Append(TransactionBatch batch) {
    if (batch.transactions.size() != batch.labels.size()) {
        return Status::InvalidArgument(
            StrFormat("batch has %zu transactions but %zu labels",
                      batch.transactions.size(), batch.labels.size()));
    }
    // Validate + canonicalize before taking the lock; a bad row rejects the
    // whole batch (appends are all-or-nothing).
    for (std::size_t t = 0; t < batch.size(); ++t) {
        auto& txn = batch.transactions[t];
        std::sort(txn.begin(), txn.end());
        txn.erase(std::unique(txn.begin(), txn.end()), txn.end());
        if (!txn.empty() && txn.back() >= config_.num_items) {
            return Status::InvalidArgument(
                StrFormat("batch row %zu: item id %u >= num_items %zu", t,
                          static_cast<unsigned>(txn.back()), config_.num_items));
        }
        if (batch.labels[t] >= config_.num_classes) {
            return Status::InvalidArgument(
                StrFormat("batch row %zu: label %u >= num_classes %zu", t,
                          static_cast<unsigned>(batch.labels[t]),
                          config_.num_classes));
        }
    }

    std::lock_guard<std::mutex> lock(mu_);
    AppendResult result;
    result.first_seq = next_seq_;
    for (std::size_t t = 0; t < batch.size(); ++t) {
        window_.push_back(
            Entry{std::move(batch.transactions[t]), batch.labels[t]});
    }
    next_seq_ += batch.size();
    ++version_;
    result.version = version_;

    // FIFO eviction past capacity.
    std::size_t evicted = 0;
    while (window_.size() > config_.window_capacity) {
        window_.pop_front();
        ++evicted;
    }

    const StreamMeters& meters = Meters();
    meters.appended.Inc(batch.size());
    meters.evicted.Inc(evicted);
    meters.window_size.Set(static_cast<double>(window_.size()));
    meters.version.Set(static_cast<double>(version_));
    return result;
}

std::shared_ptr<const TransactionDatabase> StreamingDatabase::SnapshotWindow()
    const {
    std::lock_guard<std::mutex> lock(mu_);
    if (window_cache_version_ == version_) return window_cache_;
    std::vector<std::vector<ItemId>> txns;
    std::vector<ClassLabel> labels;
    txns.reserve(window_.size());
    labels.reserve(window_.size());
    for (const Entry& entry : window_) {
        txns.push_back(entry.items);
        labels.push_back(entry.label);
    }
    window_cache_ = std::make_shared<const TransactionDatabase>(
        TransactionDatabase::FromTransactions(std::move(txns), std::move(labels),
                                              config_.num_items,
                                              config_.num_classes));
    window_cache_version_ = version_;
    return window_cache_;
}

std::uint64_t StreamingDatabase::version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
}

std::uint64_t StreamingDatabase::total_appended() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_;
}

std::size_t StreamingDatabase::window_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return window_.size();
}

std::uint64_t StreamingDatabase::window_first_seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_ - window_.size();
}

}  // namespace dfp::stream
