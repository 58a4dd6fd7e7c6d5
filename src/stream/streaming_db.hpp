// Versioned, append-only streaming transaction store (DESIGN.md §16).
//
// The offline TransactionDatabase is immutable after build — the right shape
// for mining, the wrong shape for data that never stops arriving. The
// StreamingDatabase sits in front of it:
//
//  * Appends are batches of labelled transactions. Every transaction gets a
//    monotonically increasing sequence number and every append bumps the
//    store version, so consumers can name exactly which data a model was
//    trained on ("window ending at seq S, version V").
//  * Storage is a delta log: appended rows accumulate behind the last
//    compaction point while the compacted prefix holds older rows. When the
//    log grows past `compact_every` rows, compaction physically drops rows
//    that have left the window and folds the survivors into a fresh cached
//    TransactionDatabase — appends stay O(batch), memory stays O(window),
//    and the structure is append-only between compactions (ReplaySince can
//    hand back any still-retained suffix).
//  * The *window* is a bounded suffix: the most recent `window_capacity`
//    transactions; older rows are evicted FIFO.
//  * SnapshotWindow() materializes the window as a regular
//    TransactionDatabase — the bridge back into the miners and the
//    training pipeline (the ContinuousTrainer mines it directly). The
//    snapshot is cached and shared: repeated calls between appends return
//    the same immutable database for free.
//    SnapshotDecayed() is the decay-weighted view: row weights
//    0.5^(age/half_life) are quantized to integer multiplicities, so recent
//    rows count more without any change to the miners (see §16 for the
//    approximation bound).
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
    /// Delta-log rows between compactions; 0 = window_capacity.
    std::size_t compact_every = 0;
    /// Half-life of the decay-weighted view, in transactions of age; 0
    /// disables SnapshotDecayed(). The newest window row weighs 1.0, a row
    /// `a` transactions older weighs 0.5^(a / half_life).
    double decay_half_life = 0.0;
    /// Quantization steps for decayed multiplicities: a weight w becomes
    /// round(w * quantum) replicas (rows quantized to 0 drop out).
    std::uint32_t decay_quantum = 8;
};

/// What one Append did: the sequence range assigned and the new version.
struct AppendResult {
    std::uint64_t first_seq = 0;  ///< seq of the first appended transaction
    std::uint64_t version = 0;    ///< store version after this append
};

class StreamingDatabase {
  public:
    /// Constructs with a trusted config (compact_every == 0 resolves to
    /// window_capacity). For untrusted configs, check ValidateConfig first
    /// or go through Create.
    explicit StreamingDatabase(StreamConfig config);
    StreamingDatabase(const StreamingDatabase&) = delete;
    StreamingDatabase& operator=(const StreamingDatabase&) = delete;

    /// num_items/num_classes/window_capacity must be > 0; decay knobs sane.
    static Status ValidateConfig(const StreamConfig& config);

    /// Checked construction for untrusted configs.
    static Result<std::unique_ptr<StreamingDatabase>> Create(StreamConfig config);

    /// Appends one batch. Transactions are canonicalized (sorted, item-level
    /// dedup); item ids and labels are validated against the config. On
    /// success the batch is durable in the log and the window advanced;
    /// eviction and compaction happen inside this call.
    Result<AppendResult> Append(TransactionBatch batch);

    /// The current window as an immutable TransactionDatabase (the input to
    /// re-mining and retraining). Cached: between appends, every caller
    /// shares one instance; after an append the next call rebuilds (O(window)).
    std::shared_ptr<const TransactionDatabase> SnapshotWindow() const;

    /// Decay-weighted view: each window row is replicated
    /// round(0.5^(age/half_life) * quantum) times (newest age = 0). Requires
    /// decay_half_life > 0. Supports measured on this snapshot approximate
    /// decayed supports to within the quantization step. Not cached.
    Result<TransactionDatabase> SnapshotDecayed() const;

    /// Append-only replay: every retained transaction with seq >= `seq`, in
    /// sequence order. Fails (kOutOfRange) when `seq` predates the oldest
    /// retained row — it was compacted away.
    Result<TransactionBatch> ReplaySince(std::uint64_t seq) const;

    const StreamConfig& config() const { return config_; }

    std::uint64_t version() const;         ///< bumps once per Append
    std::uint64_t total_appended() const;  ///< transactions ever appended
    std::size_t window_size() const;
    std::uint64_t window_first_seq() const;  ///< seq of the oldest window row
    std::uint64_t compactions() const;
    /// Retained rows (window + not-yet-compacted evicted prefix).
    std::size_t retained_rows() const;

  private:
    struct Entry {
        std::vector<ItemId> items;
        ClassLabel label = 0;
    };

    std::size_t WindowSizeLocked() const;
    std::shared_ptr<const TransactionDatabase> BuildWindowLocked() const;
    void CompactLocked();
    void PublishGaugesLocked() const;

    StreamConfig config_;
    mutable std::mutex mu_;
    /// Retained rows in sequence order: entry k has seq retained_first_seq_+k.
    /// The prefix before window_begin_seq_ is the logically-evicted part of
    /// the delta log awaiting compaction.
    std::deque<Entry> rows_;
    std::uint64_t retained_first_seq_ = 0;  ///< seq of rows_.front()
    std::uint64_t next_seq_ = 0;
    std::uint64_t version_ = 0;
    std::uint64_t window_begin_seq_ = 0;  ///< first seq inside the window
    std::size_t delta_rows_ = 0;          ///< rows appended since compaction
    std::uint64_t compactions_ = 0;
    /// Cached window snapshot, valid while snapshot_version_ == version_.
    mutable std::shared_ptr<const TransactionDatabase> window_cache_;
    mutable std::uint64_t window_cache_version_ = ~std::uint64_t{0};
};

}  // namespace dfp::stream
