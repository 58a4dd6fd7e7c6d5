#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <new>

#include "common/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfp::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Scores one transaction against the snapshot, converting anything thrown
/// into a Status: scoring one poisoned request must fail that request alone,
/// never take down the batch, the worker thread, or the process. The
/// `serve.engine.score` failpoint injects exactly those escapes.
///
/// Matching state is one Scratch per scoring thread, kept across batches
/// (EncodeInto re-sizes it when a reload changes the model's size), so a
/// request does not allocate O(|Fs|) counters.
Result<Prediction> ScoreOne(const ServableModel& servable,
                            const std::vector<ItemId>& items) {
    thread_local PatternMatchIndex::Scratch scratch;
    try {
        if (const auto fp = DFP_FAILPOINT("serve.engine.score"); fp) {
            fp.Sleep();
            switch (fp.kind) {
                case FailpointKind::kAllocFail:
                    throw std::bad_alloc();
                case FailpointKind::kDelay:
                    break;
                default:
                    return Status::Internal("injected scoring failure");
            }
        }
        servable.index.EncodeInto(items, &scratch);
        return Prediction{servable.model.learner().Predict(scratch.encoded),
                          servable.version};
    } catch (const std::bad_alloc&) {
        return Status::ResourceExhausted("out of memory while scoring");
    } catch (const std::exception& e) {
        return Status::Internal(std::string("scoring failed: ") + e.what());
    }
}

/// Completed request traces kept for {"op":"trace_dump"} and
/// `dfp_serve --trace-out` (oldest overwritten).
constexpr std::size_t kTraceRingCapacity = 4096;
/// Trailing window of the dfp.serve.latency.* quantiles: 8 HDR epochs, one
/// rotated out every 1.25 s (a 10 s window).
constexpr std::size_t kWindowEpochs = 8;
constexpr double kWindowEpochSeconds = 1.25;

/// HDR geometry for serve latencies: 1 µs .. 60 s in milliseconds, 64
/// sub-buckets per octave (quantile error <= 0.79%), 8 recording shards.
obs::HdrConfig ServeHdrConfig() {
    obs::HdrConfig config;
    config.min_value = 1e-3;
    config.max_value = 6e4;
    config.subbuckets_per_octave = 64;
    config.shards = 8;
    return config;
}

double StageMs(double begin_us, double end_us) {
    return end_us > begin_us ? (end_us - begin_us) / 1000.0 : 0.0;
}

std::vector<double> BatchSizeBounds() {
    return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0};
}

void Canonicalize(std::vector<ItemId>* items) {
    std::sort(items->begin(), items->end());
    items->erase(std::unique(items->begin(), items->end()), items->end());
}

}  // namespace

ScoringEngine::Meters ScoringEngine::ResolveMeters() {
    auto& reg = obs::Registry::Get();
    return Meters{
        reg.GetCounter("dfp.serve.requests"),
        reg.GetCounter("dfp.serve.shed"),
        reg.GetCounter("dfp.serve.predictions"),
        reg.GetCounter("dfp.serve.no_model"),
        reg.GetCounter("dfp.serve.batches"),
        reg.GetCounter("dfp.serve.cancelled"),
        reg.GetCounter("dfp.serve.deadline_expired"),
        reg.GetCounter("dfp.serve.score_errors"),
        reg.GetGauge("dfp.serve.queue_depth"),
        reg.GetHistogram("dfp.serve.batch_size", BatchSizeBounds()),
    };
}

ScoringEngine::ScoringEngine(ModelRegistry& registry, EngineConfig config)
    : registry_(registry),
      config_(config),
      trace_ring_(kTraceRingCapacity),
      slow_sampler_(config.telemetry.slow_request_ms),
      meters_(ResolveMeters()) {
    const std::size_t threads = ResolveNumThreads(config_.num_threads);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);

    auto& reg = obs::Registry::Get();
    const obs::HdrConfig hdr = ServeHdrConfig();
    const auto window = [&](const char* name) {
        return &reg.GetWindowedHdr(name, hdr, kWindowEpochs, kWindowEpochSeconds);
    };
    win_total_ = window("dfp.serve.latency.total");
    win_queue_ = window("dfp.serve.latency.queue");
    win_batch_wait_ = window("dfp.serve.latency.batch_wait");
    win_score_ = window("dfp.serve.latency.score");
    win_serialize_ = window("dfp.serve.latency.serialize");

    // Manual-pump tests pump batches and rotate the windows by hand, for
    // determinism.
    if (!config_.manual_pump) {
        flusher_ = std::make_unique<obs::WindowFlusher>(
            std::vector<obs::WindowedHdrHistogram*>{win_total_, win_queue_,
                                                    win_batch_wait_, win_score_,
                                                    win_serialize_},
            /*period_seconds=*/kWindowEpochSeconds / 4.0);
        batcher_ = std::thread([this] { BatcherLoop(); });
    }
}

ScoringEngine::~ScoringEngine() { Stop(); }

std::future<Result<Prediction>> ScoringEngine::Submit(std::vector<ItemId> items,
                                                      double deadline_ms,
                                                      CancelToken* cancel,
                                                      obs::RequestTrace* trace) {
    meters_.requests.Inc();
    if (deadline_ms < 0.0) deadline_ms = config_.default_deadline_ms;

    PendingRequest request{std::move(items), DeadlineTimer(deadline_ms), cancel,
                           std::promise<Result<Prediction>>{}, Clock::now(),
                           trace, obs::RequestTrace{}};
    obs::RequestTrace* t = request.trace_target();
    if (t->id == 0) t->id = obs::RequestTrace::NextId();
    t->submit_tid = obs::CompressedThreadId();
    t->submit_us = obs::NowMicros();
    Canonicalize(&request.items);
    std::future<Result<Prediction>> future = request.promise.get_future();
    {
        std::lock_guard<std::mutex> lock(mu_);
        const bool shed =
            stopping_ || queue_.size() >= config_.queue_capacity;
        if (shed) {
            meters_.shed.Inc();
            t->outcome = static_cast<std::uint16_t>(StatusCode::kUnavailable);
            // Internal traces are committed now; an external trace belongs
            // to the caller, who commits after stamping serialize times.
            if (request.external_trace == nullptr) CommitTrace(request.trace);
            request.promise.set_value(Status::Unavailable(
                stopping_ ? "scoring engine is draining"
                          : "admission queue full (" +
                                std::to_string(config_.queue_capacity) +
                                " pending)"));
            return future;
        }
        queue_.push_back(std::move(request));
        meters_.queue_depth.Set(static_cast<double>(queue_.size()));
    }
    cv_.notify_one();
    return future;
}

Result<Prediction> ScoringEngine::Predict(std::vector<ItemId> items,
                                          double deadline_ms) {
    return Submit(std::move(items), deadline_ms).get();
}

Result<std::vector<Prediction>> ScoringEngine::PredictBatch(
    std::vector<std::vector<ItemId>> batch) const {
    const ServablePtr snapshot = registry_.Snapshot();
    if (snapshot == nullptr) {
        meters_.no_model.Inc();
        return Status::FailedPrecondition("no model installed");
    }
    for (auto& items : batch) Canonicalize(&items);

    std::vector<Prediction> out(batch.size());
    std::vector<Status> errors(batch.size(), Status::Ok());
    const auto score_range = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            Result<Prediction> result = ScoreOne(*snapshot, batch[i]);
            if (result.ok()) {
                out[i] = std::move(*result);
            } else {
                errors[i] = result.status();
            }
        }
    };
    ParallelFor(pool_.get(), batch.size(), score_range, /*min_grain=*/8);
    // Batch semantics are all-or-nothing: the response frame carries either
    // every prediction or one error, so the first failure fails the call.
    for (const Status& st : errors) {
        if (!st.ok()) return st;
    }
    meters_.predictions.Inc(batch.size());
    return out;
}

void ScoringEngine::Stop() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (batcher_.joinable()) batcher_.join();
    // manual_pump mode (or anything left behind): drain inline.
    while (PumpOnce() > 0) {
    }
    if (flusher_ != nullptr) flusher_->Stop();
}

bool ScoringEngine::stopped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stopping_;
}

std::size_t ScoringEngine::queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

std::size_t ScoringEngine::PumpOnce() { return ProcessBatch(TakeBatch()); }

void ScoringEngine::BatcherLoop() {
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping_ and fully drained
            // Micro-batch policy: once something is pending, wait up to
            // max_delay_ms (from the oldest request's arrival) for the batch
            // to fill — unless we're draining, in which case dispatch now.
            if (!stopping_ && config_.max_delay_ms > 0.0 &&
                queue_.size() < config_.max_batch) {
                const auto fill_deadline =
                    queue_.front().enqueued +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            config_.max_delay_ms));
                cv_.wait_until(lock, fill_deadline, [this] {
                    return stopping_ || queue_.size() >= config_.max_batch;
                });
            }
        }
        ProcessBatch(TakeBatch());
    }
}

std::vector<ScoringEngine::PendingRequest> ScoringEngine::TakeBatch() {
    std::vector<PendingRequest> batch;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const std::size_t take = std::min(queue_.size(), config_.max_batch);
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        meters_.queue_depth.Set(static_cast<double>(queue_.size()));
    }
    const double now_us = obs::NowMicros();
    for (PendingRequest& request : batch) {
        obs::RequestTrace* t = request.trace_target();
        t->dequeue_us = now_us;
        t->batch_size = static_cast<std::uint32_t>(batch.size());
    }
    return batch;
}

std::size_t ScoringEngine::ProcessBatch(std::vector<PendingRequest> batch) {
    if (batch.empty()) return 0;
    obs::Span span("serve.batch");
    meters_.batches.Inc();
    meters_.batch_size.Observe(static_cast<double>(batch.size()));
    span.Annotate("requests", static_cast<double>(batch.size()));

    const ServablePtr snapshot = registry_.Snapshot();
    ParallelFor(
        pool_.get(), batch.size(),
        [&](std::size_t begin, std::size_t end) {
            ScoreRange(snapshot, batch, begin, end);
        },
        /*min_grain=*/4);
    // Per-request latency now flows through RecordStageLatencies (ScoreRange),
    // sourced from the trace timestamps rather than a separate clock read.
    return batch.size();
}

void ScoringEngine::ScoreRange(const ServablePtr& snapshot,
                               std::vector<PendingRequest>& batch,
                               std::size_t begin, std::size_t end) {
    std::size_t scored = 0;
    for (std::size_t i = begin; i < end; ++i) {
        PendingRequest& request = batch[i];
        obs::RequestTrace* t = request.trace_target();
        t->score_tid = obs::CompressedThreadId();
        t->score_start_us = obs::NowMicros();

        Result<Prediction> result = Prediction{};
        if (request.cancel != nullptr && request.cancel->Poll()) {
            meters_.cancelled.Inc();
            result = Status::Cancelled("request cancelled");
        } else if (request.deadline.expired()) {
            meters_.deadline_expired.Inc();
            result = Status::Cancelled("deadline expired before scoring");
        } else if (snapshot == nullptr) {
            meters_.no_model.Inc();
            result = Status::FailedPrecondition("no model installed");
        } else {
            result = ScoreOne(*snapshot, request.items);
            if (result.ok()) {
                ++scored;
            } else {
                meters_.score_errors.Inc();
            }
        }
        t->score_end_us = obs::NowMicros();
        t->outcome = static_cast<std::uint16_t>(result.status().code());

        // Lifetime rule: a dispatcher-owned (external) trace must not be
        // touched once the promise is fulfilled — the dispatcher wakes on the
        // future and immediately keeps stamping it. Copy first, publish
        // second, record from the copy.
        const obs::RequestTrace done = *t;
        request.promise.set_value(std::move(result));
        RecordStageLatencies(done);
        if (request.external_trace == nullptr) CommitTrace(done);
    }
    if (scored > 0) meters_.predictions.Inc(scored);
}

void ScoringEngine::CommitTrace(const obs::RequestTrace& trace) {
    trace_ring_.Push(trace);
    if (slow_sampler_.enabled()) slow_sampler_.Sample(trace);
    const double serialize_ms =
        StageMs(trace.serialize_start_us, trace.serialize_end_us);
    if (serialize_ms > 0.0) win_serialize_->Record(serialize_ms);
}

void ScoringEngine::RecordStageLatencies(const obs::RequestTrace& trace) {
    win_queue_->Record(StageMs(trace.submit_us, trace.dequeue_us));
    win_batch_wait_->Record(StageMs(trace.dequeue_us, trace.score_start_us));
    win_score_->Record(StageMs(trace.score_start_us, trace.score_end_us));
    win_total_->Record(StageMs(trace.submit_us, trace.score_end_us));
}

}  // namespace dfp::serve
