#include "stream/streaming_db.hpp"

#include <algorithm>
#include <cmath>

#include "common/string_util.hpp"
#include "obs/metrics.hpp"

namespace dfp::stream {

StreamingDatabase::StreamingDatabase(StreamConfig config)
    : config_(config) {
    if (config_.compact_every == 0) {
        config_.compact_every = config_.window_capacity;
    }
}

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
    if (config.decay_half_life < 0.0) {
        return Status::InvalidArgument("decay_half_life must be >= 0");
    }
    if (config.decay_half_life > 0.0 && config.decay_quantum == 0) {
        return Status::InvalidArgument("decay_quantum must be > 0");
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
    // whole batch (appends are all-or-nothing, like FromTransactionsChecked).
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
        rows_.push_back(Entry{std::move(batch.transactions[t]), batch.labels[t]});
    }
    next_seq_ += batch.size();
    delta_rows_ += batch.size();
    ++version_;
    result.version = version_;

    // FIFO eviction: advance the window start past capacity (evicted rows
    // stay in the log until compaction).
    std::uint64_t evicted = 0;
    if (next_seq_ - window_begin_seq_ > config_.window_capacity) {
        const std::uint64_t first = next_seq_ - config_.window_capacity;
        evicted = first - window_begin_seq_;
        window_begin_seq_ = first;
    }

    if (delta_rows_ >= config_.compact_every) CompactLocked();
    auto& registry = obs::Registry::Get();
    registry.GetCounter("dfp.stream.appended_total").Inc(batch.size());
    registry.GetCounter("dfp.stream.evicted_total").Inc(evicted);
    PublishGaugesLocked();
    return result;
}

std::size_t StreamingDatabase::WindowSizeLocked() const {
    return static_cast<std::size_t>(next_seq_ - window_begin_seq_);
}

std::shared_ptr<const TransactionDatabase> StreamingDatabase::BuildWindowLocked()
    const {
    const std::size_t begin =
        static_cast<std::size_t>(window_begin_seq_ - retained_first_seq_);
    std::vector<std::vector<ItemId>> txns;
    std::vector<ClassLabel> labels;
    const std::size_t n = WindowSizeLocked();
    txns.reserve(n);
    labels.reserve(n);
    for (std::size_t k = begin; k < rows_.size(); ++k) {
        txns.push_back(rows_[k].items);
        labels.push_back(rows_[k].label);
    }
    return std::make_shared<const TransactionDatabase>(
        TransactionDatabase::FromTransactions(std::move(txns), std::move(labels),
                                              config_.num_items,
                                              config_.num_classes));
}

std::shared_ptr<const TransactionDatabase> StreamingDatabase::SnapshotWindow()
    const {
    std::lock_guard<std::mutex> lock(mu_);
    if (window_cache_version_ != version_ || window_cache_ == nullptr) {
        window_cache_ = BuildWindowLocked();
        window_cache_version_ = version_;
    }
    return window_cache_;
}

Result<TransactionDatabase> StreamingDatabase::SnapshotDecayed() const {
    if (config_.decay_half_life <= 0.0) {
        return Status::FailedPrecondition(
            "decayed view disabled (decay_half_life == 0)");
    }
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t begin =
        static_cast<std::size_t>(window_begin_seq_ - retained_first_seq_);
    std::vector<std::vector<ItemId>> txns;
    std::vector<ClassLabel> labels;
    for (std::size_t k = begin; k < rows_.size(); ++k) {
        // Newest row (last) has age 0; the quantized replica count rounds the
        // decayed weight to the nearest 1/quantum.
        const double age = static_cast<double>(rows_.size() - 1 - k);
        const double weight =
            std::pow(0.5, age / config_.decay_half_life);
        const auto replicas = static_cast<std::uint32_t>(std::llround(
            weight * static_cast<double>(config_.decay_quantum)));
        for (std::uint32_t r = 0; r < replicas; ++r) {
            txns.push_back(rows_[k].items);
            labels.push_back(rows_[k].label);
        }
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels),
                                                 config_.num_items,
                                                 config_.num_classes);
}

Result<TransactionBatch> StreamingDatabase::ReplaySince(std::uint64_t seq) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (seq < retained_first_seq_) {
        return Status::OutOfRange(
            StrFormat("seq %llu predates the oldest retained row %llu "
                      "(compacted away)",
                      static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(retained_first_seq_)));
    }
    TransactionBatch out;
    if (seq >= next_seq_) return out;
    const std::size_t begin = static_cast<std::size_t>(seq - retained_first_seq_);
    out.transactions.reserve(rows_.size() - begin);
    out.labels.reserve(rows_.size() - begin);
    for (std::size_t k = begin; k < rows_.size(); ++k) {
        out.transactions.push_back(rows_[k].items);
        out.labels.push_back(rows_[k].label);
    }
    return out;
}

void StreamingDatabase::CompactLocked() {
    // Drop the logically-evicted prefix and fold the window into the cached
    // TransactionDatabase, so the next snapshot is free.
    const std::size_t drop =
        static_cast<std::size_t>(window_begin_seq_ - retained_first_seq_);
    rows_.erase(rows_.begin(),
                rows_.begin() + static_cast<std::ptrdiff_t>(drop));
    retained_first_seq_ = window_begin_seq_;
    delta_rows_ = 0;
    ++compactions_;
    window_cache_ = BuildWindowLocked();
    window_cache_version_ = version_;
}

void StreamingDatabase::PublishGaugesLocked() const {
    auto& registry = obs::Registry::Get();
    registry.GetGauge("dfp.stream.window_size")
        .Set(static_cast<double>(WindowSizeLocked()));
    registry.GetGauge("dfp.stream.retained_rows")
        .Set(static_cast<double>(rows_.size()));
    registry.GetGauge("dfp.stream.version").Set(static_cast<double>(version_));
    registry.GetGauge("dfp.stream.compactions")
        .Set(static_cast<double>(compactions_));
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
    return WindowSizeLocked();
}

std::uint64_t StreamingDatabase::window_first_seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return window_begin_seq_;
}

std::uint64_t StreamingDatabase::compactions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return compactions_;
}

std::size_t StreamingDatabase::retained_rows() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_.size();
}

}  // namespace dfp::stream
