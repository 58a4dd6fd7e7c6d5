// Sharded pattern emission with a deterministic, serial-order merge — the
// output half of the recursive mining decomposition (DESIGN.md §17).
//
// Every pattern a miner emits has a unique *DFS position*: the path of child
// ranks from the root of the search tree to the node that emits it, where a
// node's rank is its 0-based index in its parent's serial iteration order
// (class-member order for Eclat, frequent-item order for the closed miner). Serial mining emits patterns in
// preorder over these positions, and preorder over rank paths is exactly
// lexicographic order on the paths (a prefix sorts before its extensions) —
// so `std::vector<std::uint32_t>` comparison *is* the serial emission order.
//
// Every mining task, at any thread count, emits into an open shard: a run
// of patterns that is contiguous in the serial emission sequence, keyed by
// the DFS position of its *first* pattern (lazy stamping). Contiguity is maintained by one rule:
// whenever a task hands a subtree to another task (a recursive split), it
// flushes its open shard first — emissions after the spawn belong to a later
// serial range than the spawned subtree, so they open a new shard stamped at
// their own position. Sorting the finished shards by key and concatenating
// therefore reproduces the serial emission sequence bit-identically; when a
// budget truncates some tasks mid-subtree the same merge yields a
// *subsequence* of the serial sequence (each shard is still a contiguous
// serial run, ordered correctly against every other shard).
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "fpm/itemset.hpp"

namespace dfp {

/// DFS position: ranks from the search-tree root. Lexicographic order on
/// keys == serial emission (preorder) order.
using ShardKey = std::vector<std::uint32_t>;

/// Thread-safe sink for finished shards. Tasks push under a mutex (one push
/// per shard, not per pattern — contention is proportional to the number of
/// splits, not the number of patterns); the merge runs single-threaded after
/// the TaskGroup drains.
class ShardCollector {
  public:
    void Push(ShardKey key, std::vector<Pattern> patterns) {
        std::lock_guard<std::mutex> lock(mu_);
        shards_.push_back({std::move(key), std::move(patterns)});
    }

    /// Sorts shards by key and appends their patterns to `out` — the serial
    /// emission order (see file comment). Call only after every emitting task
    /// finished. Keys are unique (a DFS position belongs to exactly one
    /// shard), so the sort needs no tie-break. An empty `out` takes over the
    /// first shard's storage, so a mine that never split (one shard) moves
    /// no pattern.
    void MergeInto(std::vector<Pattern>* out) {
        std::lock_guard<std::mutex> lock(mu_);
        std::sort(shards_.begin(), shards_.end(),
                  [](const Shard& a, const Shard& b) { return a.key < b.key; });
        std::size_t first = 0;
        if (out->empty() && !shards_.empty()) {
            *out = std::move(shards_.front().patterns);
            first = 1;
        }
        std::size_t total = 0;
        for (std::size_t i = first; i < shards_.size(); ++i) {
            total += shards_[i].patterns.size();
        }
        out->reserve(out->size() + total);
        for (std::size_t i = first; i < shards_.size(); ++i) {
            for (Pattern& p : shards_[i].patterns) out->push_back(std::move(p));
        }
        shards_.clear();
    }

  private:
    struct Shard {
        ShardKey key;
        std::vector<Pattern> patterns;
    };

    std::mutex mu_;
    std::vector<Shard> shards_;
};

/// Per-task emitter: tracks the task's current DFS position and the open
/// shard. Miners push a rank entering a search node and pop it on exit;
/// Emit() stamps the shard with the current position on the shard's first
/// pattern. Flush() must be called before submitting any child task (the
/// contiguity rule above); the destructor flushes the final run.
class ShardEmitter {
  public:
    ShardEmitter(ShardCollector* collector, ShardKey base_path)
        : collector_(collector), path_(std::move(base_path)) {}
    ShardEmitter(const ShardEmitter&) = delete;
    ShardEmitter& operator=(const ShardEmitter&) = delete;
    ~ShardEmitter() { Flush(); }

    void PushRank(std::uint32_t rank) { path_.push_back(rank); }
    void PopRank() { path_.pop_back(); }

    /// The current DFS position (the base path a spawned child should start
    /// from — the child's subtree root *is* this position).
    const ShardKey& path() const { return path_; }

    void Emit(Pattern&& p) {
        if (!stamped_) {
            key_ = path_;
            stamped_ = true;
        }
        open_.push_back(std::move(p));
    }

    /// Closes the open shard (no-op when empty). Required before spawning a
    /// child task; emissions afterwards start a new shard at their own
    /// position.
    void Flush() {
        if (!open_.empty()) {
            collector_->Push(std::move(key_), std::move(open_));
            key_.clear();
            open_.clear();
        }
        stamped_ = false;
    }

  private:
    ShardCollector* collector_;
    ShardKey path_;
    ShardKey key_;
    std::vector<Pattern> open_;
    bool stamped_ = false;
};

}  // namespace dfp
