// Versioned streaming transaction store (DESIGN.md §16).
//
// The offline TransactionDatabase is immutable after build — the right shape
// for mining, the wrong shape for data that never stops arriving. The
// StreamingDatabase sits in front of it as a bounded FIFO window:
//
//  * Appends are batches of labelled transactions. Every transaction gets a
//    monotonically increasing sequence number and every append bumps the
//    store version, so consumers can name exactly which data a model was
//    trained on ("window ending at seq S, version V").
//  * The store keeps only the window: the most recent `window_capacity`
//    transactions. An append pushes its rows and evicts the oldest past
//    capacity, so appends stay O(batch) and memory stays O(window).
//  * SnapshotWindow() materializes the window as a regular
//    TransactionDatabase — the bridge back into the miners and the
//    training pipeline (the ContinuousTrainer mines it directly). The
//    snapshot is cached and shared: repeated calls between appends return
//    the same immutable database for free.
//
// Thread-safe: appends and snapshots may race (internal mutex). The typical
// topology is one ingest thread appending while the ContinuousTrainer
// snapshots — neither blocks serving, which never touches this class.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "data/transaction_db.hpp"

namespace dfp::stream {

/// One ingest unit: parallel transaction/label arrays.
struct TransactionBatch {
    std::vector<std::vector<ItemId>> transactions;
    std::vector<ClassLabel> labels;

    std::size_t size() const { return labels.size(); }
    bool empty() const { return labels.empty(); }
};

struct StreamConfig {
    /// Fixed item universe / label arity — appends outside are rejected.
    std::size_t num_items = 0;
    std::size_t num_classes = 0;
    /// Sliding-window bound (transactions). Appends beyond it evict FIFO.
    std::size_t window_capacity = 4096;
};

/// What one Append did: the sequence range assigned and the new version.
struct AppendResult {
    std::uint64_t first_seq = 0;  ///< seq of the first appended transaction
    std::uint64_t version = 0;    ///< store version after this append
};

class StreamingDatabase {
  public:
    /// Constructs with a trusted config. For untrusted configs, check
    /// ValidateConfig first or go through Create.
    explicit StreamingDatabase(StreamConfig config);
    StreamingDatabase(const StreamingDatabase&) = delete;
    StreamingDatabase& operator=(const StreamingDatabase&) = delete;

    /// num_items/num_classes/window_capacity must be > 0.
    static Status ValidateConfig(const StreamConfig& config);

    /// Checked construction for untrusted configs.
    static Result<std::unique_ptr<StreamingDatabase>> Create(StreamConfig config);

    /// Appends one batch. Transactions are canonicalized (sorted, item-level
    /// dedup); item ids and labels are validated against the config. On
    /// success the window holds the batch and has evicted its oldest rows
    /// past capacity.
    Result<AppendResult> Append(TransactionBatch batch);

    /// The current window as an immutable TransactionDatabase (the input to
    /// re-mining and retraining). Cached: between appends, every caller
    /// shares one instance; after an append the next call rebuilds (O(window)).
    std::shared_ptr<const TransactionDatabase> SnapshotWindow() const;

    const StreamConfig& config() const { return config_; }

    std::uint64_t version() const;         ///< bumps once per Append
    std::uint64_t total_appended() const;  ///< transactions ever appended
    std::size_t window_size() const;
    std::uint64_t window_first_seq() const;  ///< seq of the oldest window row

  private:
    struct Entry {
        std::vector<ItemId> items;
        ClassLabel label = 0;
    };

    StreamConfig config_;
    mutable std::mutex mu_;
    /// The window in sequence order: entry k has seq
    /// next_seq_ - window_.size() + k.
    std::deque<Entry> window_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t version_ = 0;
    /// Cached window snapshot, valid while window_cache_version_ == version_.
    mutable std::shared_ptr<const TransactionDatabase> window_cache_;
    mutable std::uint64_t window_cache_version_ = ~std::uint64_t{0};
};

}  // namespace dfp::stream
