// Model registry: versioned, hot-reloadable ownership of the served model.
//
// A ServableModel bundles a LoadedModel, a handle on the PatternMatchIndex
// its feature space compiled, and a monotonically increasing version. The
// registry hands out `shared_ptr<const ServableModel>` snapshots; a Reload()
// builds the new servable entirely off to the side before one pointer swap
// publishes it.
// In-flight requests keep scoring against the snapshot they grabbed, so a
// reload drops no responses and misroutes none (each response reports the
// version that produced it).
//
// The published pointer is guarded by a plain mutex held only for the
// shared_ptr copy, not std::atomic<shared_ptr>: libstdc++ 12's _Sp_atomic
// unlocks its reader spin-bit with relaxed ordering, which TSan (correctly,
// per the C++ memory model) reports as a load/store race. A snapshot is
// taken once per scoring batch, so the mutex is off the per-prediction path.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.hpp"
#include "core/model_io.hpp"
#include "serve/scoring_index.hpp"

namespace dfp::obs {
class Registry;
}  // namespace dfp::obs

namespace dfp::serve {

/// One immutable, scorable model version.
struct ServableModel {
    ServableModel(LoadedModel loaded, std::uint64_t model_version,
                  std::string model_source)
        : model(std::move(loaded)),
          index(model.feature_space().matcher()),
          version(model_version),
          source(std::move(model_source)) {}
    // `index` refers into `model`; a copy or move would leave it dangling.
    ServableModel(const ServableModel&) = delete;
    ServableModel& operator=(const ServableModel&) = delete;

    LoadedModel model;
    /// The model's own matcher (FeatureSpace::matcher()), scored through
    /// directly with a per-worker Scratch.
    const PatternMatchIndex& index;
    std::uint64_t version;
    std::string source;
};

using ServablePtr = std::shared_ptr<const ServableModel>;

class ModelRegistry {
  public:
    ModelRegistry() = default;
    ModelRegistry(const ModelRegistry&) = delete;
    ModelRegistry& operator=(const ModelRegistry&) = delete;

    /// Validate-then-swap reload (DESIGN.md §15): parses the dfp-model v1
    /// bundle from `path` (checksum-verified), validates it, compiles its
    /// index entirely off to the side, and only then swaps it in as the next
    /// version. A failure at any stage before the swap — unreadable file,
    /// checksum mismatch, parse error, degenerate model, allocation failure —
    /// leaves the currently served model untouched; a failure detected after
    /// the swap rolls back to the previous version (counted in
    /// `dfp.serve.reload_rollbacks`). Thread-safe; concurrent reloads
    /// serialize, readers are never blocked.
    Result<ServablePtr> Reload(const std::string& path);

    /// Publishes an already-loaded model (the in-process quickstart path).
    ServablePtr Install(LoadedModel model, std::string source = "<memory>");

    /// Snapshot of the current model; null before the first load. The
    /// snapshot stays valid (and scorable) for as long as the caller holds
    /// it, across any number of subsequent reloads.
    ServablePtr Snapshot() const {
        std::lock_guard<std::mutex> lock(snapshot_mu_);
        return current_;
    }

    /// Version of the currently served model (0 = none installed).
    std::uint64_t current_version() const {
        const ServablePtr snap = Snapshot();
        return snap == nullptr ? 0 : snap->version;
    }

    /// Seconds since the last successful publish (Install, or a Reload that
    /// survived post-publish verification); negative before any publish.
    /// This is the served-model staleness signal: the streaming trainer
    /// exports it per retrain and bench_stream reports it as
    /// `staleness_seconds`.
    double SecondsSinceLastPublish() const {
        std::lock_guard<std::mutex> lock(snapshot_mu_);
        if (!published_once_) return -1.0;
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - last_publish_)
            .count();
    }

  private:
    static void RecordPublish(obs::Registry& metrics,
                              const ServableModel& servable);

    /// Stamps last_publish_ (call after a publish sticks).
    void MarkPublished() {
        std::lock_guard<std::mutex> lock(snapshot_mu_);
        last_publish_ = std::chrono::steady_clock::now();
        published_once_ = true;
    }

    mutable std::mutex snapshot_mu_;  ///< guards current_; pointer-copy only
    ServablePtr current_;
    std::chrono::steady_clock::time_point last_publish_{};  ///< snapshot_mu_
    bool published_once_ = false;                           ///< snapshot_mu_
    std::mutex reload_mu_;  ///< serializes writers end to end
    std::uint64_t next_version_ = 1;  ///< guarded by reload_mu_
};

}  // namespace dfp::serve
