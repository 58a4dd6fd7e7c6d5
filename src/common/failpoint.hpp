// Deterministic failpoints: named fault-injection sites for chaos testing.
//
// A failpoint is a named site in production code where a test (or an operator
// rehearsing an incident) can inject a fault on demand:
//
//     if (auto fp = DFP_FAILPOINT("serve.socket.write"); fp) {
//         if (fp.kind == FailpointKind::kError) return Status::Internal(...);
//         ...
//     }
//
// Sites interpret the action themselves, because only the site knows what a
// realistic fault looks like there: a socket write can be short, a recv can
// see EINTR, a model load can observe a torn file, an allocation can fail.
//
// Properties:
//  * Zero-cost when disabled. DFP_FAILPOINT compiles to one relaxed atomic
//    load and a predictable branch; no registry lookup, no lock, no string
//    work. Production binaries keep the sites compiled in (they are the whole
//    point: the shipped code path is the tested code path).
//  * Deterministic per seed. Every probabilistic draw comes from a
//    per-failpoint xoshiro stream seeded with `seed ^ fnv1a(name)`, so a
//    schedule replays identically regardless of registration order or which
//    other failpoints exist. (Under concurrency the *order* of hits across
//    threads is the scheduler's, but each failpoint's fire/no-fire sequence
//    by hit index is fixed.)
//  * Observable. Every trip bumps `dfp.failpoint.<name>` in the metrics
//    registry and the per-failpoint trip counter, so chaos runs and bench
//    soaks can report exactly which faults actually fired.
//
// Schedules are configured from a spec string (CLI flag `--failpoints`, env
// DFP_FAILPOINTS, or tests):
//
//     point=mode[:kind[:arg]] [; point=... ]
//
//   modes:  always | prob(P) | nth(N) (fires once, on the Nth hit, 1-based)
//           | every(N) (every Nth hit) | off
//   kinds:  error (default) | short | eintr | timeout | alloc | delay(MS)
//           | abort
//
//   e.g. "serve.socket.write=prob(0.1):error;core.model_io.load=nth(2):short"
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace dfp {

/// What the site should pretend happened. Sites handle the kinds that make
/// sense for them and treat the rest as kError.
enum class FailpointKind : std::uint8_t {
    kNone = 0,
    kError,       ///< fail with an injected error Status
    kShortWrite,  ///< truncate the I/O (short write / torn read)
    kEintr,       ///< behave as if the syscall returned EINTR
    kTimeout,     ///< behave as a timed-out I/O (kUnavailable)
    kAllocFail,   ///< throw std::bad_alloc
    kDelay,       ///< sleep delay_ms, then proceed normally
    kAbort,       ///< std::abort() — crash rehearsal for external harnesses
};

/// The evaluated outcome of one DFP_FAILPOINT hit. Falsy = proceed normally.
struct FailpointAction {
    FailpointKind kind = FailpointKind::kNone;
    double delay_ms = 0.0;

    explicit operator bool() const { return kind != FailpointKind::kNone; }

    /// Convenience for kDelay (and the delay component of other kinds):
    /// sleeps delay_ms if set. Returns *this so sites can chain.
    const FailpointAction& Sleep() const;
};

/// One named injection site's armed schedule + counters. Thread-safe.
class Failpoint {
  public:
    enum class Mode : std::uint8_t { kOff = 0, kAlways, kProb, kNth, kEvery };

    explicit Failpoint(std::string name) : name_(std::move(name)) {}

    /// Installs a schedule; resets hit/trip counters and reseeds the draw
    /// stream from `seed ^ fnv1a(name)`.
    void Arm(Mode mode, double param, FailpointKind kind, double delay_ms,
             std::uint64_t seed);
    void Disarm();

    /// Counts a hit and decides (deterministically) whether to fire.
    FailpointAction Evaluate();

    const std::string& name() const { return name_; }
    std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    std::uint64_t trips() const { return trips_.load(std::memory_order_relaxed); }

  private:
    const std::string name_;
    mutable std::mutex mu_;  ///< guards mode/rng; Evaluate is syscall-adjacent
    Mode mode_ = Mode::kOff;
    double param_ = 0.0;  ///< prob p, or N for nth/every
    FailpointKind kind_ = FailpointKind::kError;
    double delay_ms_ = 0.0;
    Rng rng_{0};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> trips_{0};
};

/// Process-global registry of failpoints. Sites self-register on first hit
/// (while enabled); Configure() creates the named points up front so a spec
/// can arm a site before it is ever reached.
class FailpointRegistry {
  public:
    static FailpointRegistry& Get();

    /// Parses and installs a schedule. Disarms everything first, so each
    /// Configure call fully replaces the previous schedule; an empty spec is
    /// equivalent to DisableAll(). On a malformed spec nothing is armed.
    Status Configure(std::string_view spec, std::uint64_t seed);

    /// Disarms every failpoint and clears the global enabled flag.
    void DisableAll();

    /// The named failpoint, or null if it has never been registered.
    Failpoint* Find(std::string_view name);

    /// Registers (or finds) a failpoint. References stay valid forever.
    Failpoint& GetOrCreate(std::string_view name);

    struct Stats {
        std::string name;
        std::uint64_t hits = 0;
        std::uint64_t trips = 0;
    };
    std::vector<Stats> Snapshot() const;

    /// Total trips across all failpoints since the last Configure.
    std::uint64_t TotalTrips() const;

  private:
    FailpointRegistry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Failpoint>, std::less<>> points_;
};

/// True when any failpoint is armed (one relaxed atomic load).
bool FailpointsEnabled();

/// Slow path behind DFP_FAILPOINT: registry lookup + Evaluate. Only called
/// while failpoints are enabled.
FailpointAction EvaluateFailpoint(const char* name);

/// Reads DFP_FAILPOINTS / DFP_FAILPOINT_SEED from the environment and
/// configures the registry from them. No-op when DFP_FAILPOINTS is unset.
Status ConfigureFailpointsFromEnv();

/// FNV-1a 64-bit hash (failpoint seeding and model-bundle checksums).
std::uint64_t Fnv1a64(std::string_view bytes);

#define DFP_FAILPOINT(name)                          \
    (::dfp::FailpointsEnabled() ? ::dfp::EvaluateFailpoint(name) \
                                : ::dfp::FailpointAction{})

}  // namespace dfp
