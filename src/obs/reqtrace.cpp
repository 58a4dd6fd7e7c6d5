#include "obs/reqtrace.hpp"

#include <chrono>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace dfp::obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point ProcessOrigin() {
    static const Clock::time_point origin = Clock::now();
    return origin;
}

std::size_t RoundUpPow2(std::size_t n) {
    std::size_t p = 2;
    while (p < n) p <<= 1;
    return p;
}

}  // namespace

double NowMicros() {
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     ProcessOrigin())
        .count();
}

std::uint64_t RequestTrace::NextId() {
    static std::atomic<std::uint64_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t CompressedThreadId() {
    static std::atomic<std::uint64_t> next{0};
    thread_local const std::uint64_t id =
        next.fetch_add(1, std::memory_order_relaxed) + 1;
    return id;
}

TraceRing::TraceRing(std::size_t capacity) {
    const std::size_t slots = RoundUpPow2(capacity);
    mask_ = slots - 1;
    slots_ = std::make_unique<Slot[]>(slots);
}

static_assert(std::is_trivially_copyable_v<RequestTrace>,
              "TraceRing stages RequestTrace through memcpy");

void TraceRing::StoreTrace(Slot& slot, const RequestTrace& trace) {
    std::uint64_t staged[kWords] = {};
    std::memcpy(staged, &trace, sizeof(trace));
    for (std::size_t w = 0; w < kWords; ++w) {
        slot.words[w].store(staged[w], std::memory_order_relaxed);
    }
}

RequestTrace TraceRing::LoadTrace(const Slot& slot) {
    std::uint64_t staged[kWords];
    for (std::size_t w = 0; w < kWords; ++w) {
        staged[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    RequestTrace trace;
    std::memcpy(&trace, staged, sizeof(trace));
    return trace;
}

void TraceRing::Push(const RequestTrace& trace) {
    const std::uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[idx & mask_];
    // Per-slot seqlock: odd marks the slot in-flight, and a writer takes the
    // slot only by moving its sequence from even to odd, so a writer that
    // laps another onto the same slot waits for it. (Two unconditional
    // increments would leave the sequence even while both write, and a
    // reader could accept a torn copy.) A reader accepts a slot only if its
    // sequence was even AND unchanged around the copy. The payload goes
    // through relaxed atomic words (StoreTrace/LoadTrace) so the concurrent
    // accesses the seqlock tolerates are not data races.
    std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    while (seq % 2 != 0 ||
           !slot.seq.compare_exchange_weak(seq, seq + 1,
                                           std::memory_order_relaxed)) {
        if (seq % 2 != 0) seq = slot.seq.load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_release);
    StoreTrace(slot, trace);
    slot.seq.store(seq + 2, std::memory_order_release);
}

std::vector<RequestTrace> TraceRing::Dump() const {
    const std::size_t slots = mask_ + 1;
    const std::uint64_t end = next_.load(std::memory_order_acquire);
    const std::uint64_t begin = end > slots ? end - slots : 0;
    std::vector<RequestTrace> out;
    out.reserve(static_cast<std::size_t>(end - begin));
    for (std::uint64_t i = begin; i < end; ++i) {
        const Slot& slot = slots_[i & mask_];
        const std::uint64_t seq_before =
            slot.seq.load(std::memory_order_acquire);
        if (seq_before % 2 != 0) continue;  // writer mid-flight
        const RequestTrace copy = LoadTrace(slot);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) != seq_before) {
            continue;  // overwritten while copying
        }
        out.push_back(copy);
    }
    return out;
}

namespace {

struct StageEvent {
    const char* name;
    double start_us;
    double end_us;
    std::uint64_t tid;
};

void AppendEvent(std::ostringstream& out, bool& first, const StageEvent& stage,
                 const RequestTrace& trace) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << stage.name << "\",\"ph\":\"X\",\"ts\":";
    WriteJsonNumber(out, stage.start_us);
    out << ",\"dur\":";
    WriteJsonNumber(out, stage.end_us > stage.start_us
                             ? stage.end_us - stage.start_us
                             : 0.0);
    out << ",\"pid\":1,\"tid\":" << stage.tid << ",\"args\":{\"req\":"
        << trace.id << ",\"batch\":" << trace.batch_size
        << ",\"outcome\":" << trace.outcome << "}}";
}

}  // namespace

std::string RenderChromeTrace(const std::vector<RequestTrace>& traces) {
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const RequestTrace& trace : traces) {
        if (trace.dequeue_us > 0.0) {
            AppendEvent(out, first,
                        {"queue", trace.submit_us, trace.dequeue_us,
                         trace.submit_tid},
                        trace);
        }
        if (trace.score_start_us > 0.0) {
            AppendEvent(out, first,
                        {"batch_wait", trace.dequeue_us, trace.score_start_us,
                         trace.score_tid},
                        trace);
            AppendEvent(out, first,
                        {"score", trace.score_start_us, trace.score_end_us,
                         trace.score_tid},
                        trace);
        }
        if (trace.serialize_start_us > 0.0) {
            AppendEvent(out, first,
                        {"serialize", trace.serialize_start_us,
                         trace.serialize_end_us, trace.submit_tid},
                        trace);
        }
    }
    out << "],\"displayTimeUnit\":\"ms\"}";
    return out.str();
}

bool SlowRequestSampler::Sample(const RequestTrace& trace) {
    if (!enabled()) return false;
    const double total_ms = trace.TotalMs();
    if (total_ms < threshold_ms_) return false;
    Registry::Get().GetCounter("dfp.serve.slow_requests").Inc();
    const double now_us = NowMicros();
    double last = last_log_us_.load(std::memory_order_relaxed);
    if (now_us - last < min_interval_ms_ * 1000.0 ||
        !last_log_us_.compare_exchange_strong(last, now_us,
                                              std::memory_order_relaxed)) {
        return true;  // over threshold, but rate-limited out of the log
    }
    const auto stage_ms = [](double begin_us, double end_us) {
        return end_us > begin_us ? (end_us - begin_us) / 1000.0 : 0.0;
    };
    DFP_LOG_WARN(StrFormat(
        "slow request #%llu: total %.3fms (queue %.3f, batch_wait %.3f, "
        "score %.3f, serialize %.3f) batch=%u outcome=%u",
        static_cast<unsigned long long>(trace.id), total_ms,
        stage_ms(trace.submit_us, trace.dequeue_us),
        stage_ms(trace.dequeue_us, trace.score_start_us),
        stage_ms(trace.score_start_us, trace.score_end_us),
        stage_ms(trace.serialize_start_us, trace.serialize_end_us),
        unsigned{trace.batch_size}, unsigned{trace.outcome}));
    return true;
}

}  // namespace dfp::obs
