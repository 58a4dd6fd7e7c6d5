// Micro-batched scoring engine with admission control.
//
// The serving front-end (TCP handlers, the in-process client) submits single
// transactions; the engine coalesces whatever is concurrently pending into
// micro-batches (up to max_batch requests, waiting at most max_delay_ms for
// stragglers) and fans each batch out over the work-stealing ThreadPool.
// Batching amortizes queue/wake overhead; the per-request unit of work stays
// one inverted-index match plus one learner evaluation, so results are
// independent of batch composition — predictions are bit-identical to
// LoadedModel::Predict at every batch size and thread count.
//
// Admission control (DESIGN.md §13):
//  * Bounded queue. Submit() on a full queue sheds immediately with
//    kUnavailable (counted in dfp.serve.shed) instead of building an
//    unbounded backlog — the client's cue to back off.
//  * Per-request deadlines reuse the budget primitives (DeadlineTimer
//    anchored at submit, optional CancelToken): a request whose deadline
//    passed while queued is answered kCancelled without being scored.
//  * Graceful drain. Stop() refuses new work (kUnavailable) but scores
//    everything already admitted before returning — an accepted request is
//    never dropped.
//
// Every stage publishes dfp.serve.* metrics; batch scoring runs under a
// "serve.batch" trace span.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/budget.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "obs/hdr.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "serve/registry.hpp"

namespace dfp::serve {

/// Live-serving telemetry knobs (DESIGN.md §14). The trace ring (4096
/// traces) and the latency window (8 epochs of 1.25 s) are fixed.
struct TelemetryConfig {
    /// Requests slower than this many milliseconds end to end are logged
    /// with their per-stage breakdown (rate-limited); < 0 disables.
    double slow_request_ms = -1.0;
};

struct EngineConfig {
    /// Largest micro-batch handed to the pool in one go.
    std::size_t max_batch = 64;
    /// How long a non-full batch waits for stragglers once the first request
    /// is pending. 0 = dispatch immediately.
    double max_delay_ms = 0.5;
    /// Admission bound: Submit() sheds with kUnavailable beyond this.
    std::size_t queue_capacity = 1024;
    /// Scoring workers (0 = hardware_concurrency, 1 = score on the batcher
    /// thread — the serial path).
    std::size_t num_threads = 1;
    /// Deadline applied to requests that don't carry their own (< 0 = none).
    double default_deadline_ms = -1.0;
    /// Test seam: no batcher thread or window flusher is spawned; tests call
    /// PumpOnce() to process one micro-batch deterministically.
    bool manual_pump = false;
    TelemetryConfig telemetry;
};

/// One scored request: the label plus the model version that produced it.
struct Prediction {
    ClassLabel label = 0;
    std::uint64_t model_version = 0;
};

class ScoringEngine {
  public:
    ScoringEngine(ModelRegistry& registry, EngineConfig config);
    ScoringEngine(const ScoringEngine&) = delete;
    ScoringEngine& operator=(const ScoringEngine&) = delete;
    /// Stops and drains (see Stop()).
    ~ScoringEngine();

    /// Enqueues one transaction for micro-batched scoring. `items` need not
    /// be sorted — the engine canonicalizes (sort + dedup). The future is
    /// always eventually satisfied: with a Prediction, or with kUnavailable
    /// (shed / stopped), kCancelled (deadline or token), or
    /// kFailedPrecondition (no model installed).
    ///
    /// `trace`, when non-null, is stamped across the request's thread hops
    /// (submit/dequeue/score). It must stay alive until the future is ready
    /// (the dispatcher keeps it on its stack while blocked on get()); the
    /// engine stops touching it strictly before fulfilling the promise. A
    /// caller passing a trace owns committing it (CommitTrace) after adding
    /// its serialize timestamps; requests submitted without one are traced
    /// and committed internally.
    std::future<Result<Prediction>> Submit(std::vector<ItemId> items,
                                           double deadline_ms = -1.0,
                                           CancelToken* cancel = nullptr,
                                           obs::RequestTrace* trace = nullptr);

    /// Submit + wait. Do not call in manual_pump mode (nothing would pump).
    Result<Prediction> Predict(std::vector<ItemId> items,
                               double deadline_ms = -1.0);

    /// Scores a whole batch directly against the current snapshot, bypassing
    /// the admission queue (the predict_batch protocol op and offline eval).
    Result<std::vector<Prediction>> PredictBatch(
        std::vector<std::vector<ItemId>> batch) const;

    /// Graceful drain: new Submits are refused with kUnavailable, every
    /// already-queued request is scored, then the batcher joins. Idempotent.
    void Stop();

    bool stopped() const;
    /// Current queue depth (tests / stats).
    std::size_t queue_depth() const;

    /// manual_pump mode: processes at most one micro-batch on the calling
    /// thread; returns the number of requests handled.
    std::size_t PumpOnce();

    const EngineConfig& config() const { return config_; }

    /// Completed request traces (the last 4096; oldest overwritten).
    const obs::TraceRing& trace_ring() const { return trace_ring_; }

    /// Pushes a finished trace into the ring, samples it for slow-request
    /// logging, and records its serialize stage (if stamped) into
    /// dfp.serve.latency.serialize. Called internally for engine-traced
    /// requests and by RequestDispatcher for protocol requests.
    void CommitTrace(const obs::RequestTrace& trace);

  private:
    struct PendingRequest {
        std::vector<ItemId> items;
        DeadlineTimer deadline;
        CancelToken* cancel = nullptr;
        std::promise<Result<Prediction>> promise;
        std::chrono::steady_clock::time_point enqueued;
        /// Dispatcher-owned trace (engine must not touch it after the
        /// promise is fulfilled), or null to use `trace` below.
        obs::RequestTrace* external_trace = nullptr;
        obs::RequestTrace trace;

        obs::RequestTrace* trace_target() {
            return external_trace != nullptr ? external_trace : &trace;
        }
    };

    void BatcherLoop();
    /// Takes up to max_batch requests off the queue (call with mu_ held is
    /// NOT required; it locks internally). Returns an empty vector when the
    /// queue was empty.
    std::vector<PendingRequest> TakeBatch();
    std::size_t ProcessBatch(std::vector<PendingRequest> batch);
    void ScoreRange(const ServablePtr& snapshot,
                    std::vector<PendingRequest>& batch, std::size_t begin,
                    std::size_t end);

    /// Records one request's stage durations into the windowed latency
    /// histograms.
    void RecordStageLatencies(const obs::RequestTrace& trace);

    /// The counters, gauge and histogram the request and batch paths update.
    /// Registry metrics are immortal, so they are resolved once at
    /// construction and no request or batch looks a metric up by name.
    struct Meters {
        obs::Counter& requests;
        obs::Counter& shed;
        obs::Counter& predictions;
        obs::Counter& no_model;
        obs::Counter& batches;
        obs::Counter& cancelled;
        obs::Counter& deadline_expired;
        obs::Counter& score_errors;
        obs::Gauge& queue_depth;
        obs::Histogram& batch_size;
    };
    static Meters ResolveMeters();

    ModelRegistry& registry_;
    EngineConfig config_;
    std::unique_ptr<ThreadPool> pool_;  ///< null when scoring runs serial

    // Telemetry. The windowed histograms are registry-owned (immortal);
    // the engine only resolves them once and drives rotation.
    obs::TraceRing trace_ring_;
    obs::SlowRequestSampler slow_sampler_;
    obs::WindowedHdrHistogram* win_total_ = nullptr;
    obs::WindowedHdrHistogram* win_queue_ = nullptr;
    obs::WindowedHdrHistogram* win_batch_wait_ = nullptr;
    obs::WindowedHdrHistogram* win_score_ = nullptr;
    obs::WindowedHdrHistogram* win_serialize_ = nullptr;
    Meters meters_;
    std::unique_ptr<obs::WindowFlusher> flusher_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<PendingRequest> queue_;
    bool stopping_ = false;
    std::thread batcher_;
};

}  // namespace dfp::serve
