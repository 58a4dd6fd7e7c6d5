// Continuous retraining: stream → window mine → train → hot reload.
//
// The ContinuousTrainer closes the loop between the StreamingDatabase and the
// serving ModelRegistry (DESIGN.md §16):
//
//   Ingest(batch)        appends to the stream and feeds the DriftDetector
//                        prequentially: every labelled row is scored by the
//                        *served* model before it becomes training data
//                        (test-then-train), so live accuracy is measured on
//                        data the model has never seen.
//   MaybeRetrain()       the pump. Retrains when (in priority order) a prior
//                        retrain is awaiting retry, no model is serving yet
//                        (bootstrap), the row-count schedule fires
//                        (retrain_every), or the DriftDetector reports drift.
//   RetrainNow(trigger)  mines the stream's window snapshot with Eclat,
//                        runs the pipeline's selection → transform → learn tail
//                        (TrainWithCandidates), persists a versioned bundle
//                        and publishes it through ModelRegistry::Reload() —
//                        the same validate-then-swap path operators use, so
//                        every streaming model passes the same gauntlet. A
//                        failed reload (e.g. an injected failpoint) leaves
//                        the previous version serving and arms a retry; the
//                        next pump tries again.
//
// Threading: Ingest and MaybeRetrain may be called from different threads.
// The window snapshot is immutable, so mining and the heavy train/save/reload
// work run outside the ingest mutex: appending never stalls behind a retrain;
// retrains themselves serialize.
// Serving reads only the registry and is never blocked by any of this.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.hpp"
#include "core/pipeline.hpp"
#include "serve/registry.hpp"
#include "stream/drift.hpp"
#include "stream/streaming_db.hpp"

namespace dfp::stream {

struct ContinuousTrainerConfig {
    /// Selection / transform / learn knobs; `pipeline.miner` also supplies
    /// the window-mining parameters (min_sup, max_pattern_len, ...).
    PipelineConfig pipeline;
    /// Learner TypeId for every retrain ("nb", "svm", "c4.5").
    std::string learner_type = "nb";
    /// Scheduled retraining: rows ingested between retrains (0 = drift/
    /// bootstrap only). Row counts, not wall clock, keep tests deterministic.
    std::size_t retrain_every = 0;
    /// Minimum window size before any retrain (schedule or drift).
    std::size_t min_window = 64;
    /// Consult the DriftDetector in MaybeRetrain().
    bool drift_trigger = true;
    DriftDetectorConfig drift;
    /// Directory for versioned model bundles (stream_model_v<N>.dfp).
    std::string model_dir;
};

struct TrainerStats {
    std::uint64_t ingested = 0;          ///< rows accepted by Ingest
    std::uint64_t retrains = 0;          ///< successful train+publish cycles
    std::uint64_t retrain_failures = 0;  ///< failed cycles (retry armed)
    std::uint64_t drift_triggers = 0;
    std::uint64_t schedule_triggers = 0;
    std::uint64_t last_stream_version = 0;  ///< stream version last trained on
    std::uint64_t last_model_version = 0;   ///< registry version last published
    /// Candidates the significance filter rejected in the last retrain
    /// (0 when pipeline.significance.test == kNone; stats/significance.hpp).
    std::uint64_t last_sig_rejected = 0;
    double last_retrain_seconds = 0.0;
    bool retry_pending = false;
};

class ContinuousTrainer {
  public:
    /// `db` and `registry` must outlive the trainer; all stream appends must
    /// go through Ingest so the drift detector sees every row.
    static Result<std::unique_ptr<ContinuousTrainer>> Create(
        ContinuousTrainerConfig config, StreamingDatabase* db,
        serve::ModelRegistry* registry);

    /// Appends one labelled batch. Scores each row against the served model
    /// first (prequential drift signal), then appends it to the stream; the
    /// drift detector sees the batch only if the append accepts it.
    /// Returns the stream's AppendResult.
    Result<AppendResult> Ingest(TransactionBatch batch);

    /// Retrains if a trigger is armed (retry > bootstrap > schedule > drift).
    /// Returns true when a retrain ran and published, false when nothing
    /// triggered, and the failure Status when a triggered retrain failed
    /// (the previous model keeps serving; the retry stays armed).
    Result<bool> MaybeRetrain();

    /// Unconditional retrain; `trigger` labels the run in logs/metrics.
    Status RetrainNow(const std::string& trigger);

    TrainerStats stats() const;
    const ContinuousTrainerConfig& config() const { return config_; }

  private:
    ContinuousTrainer(ContinuousTrainerConfig config, StreamingDatabase* db,
                      serve::ModelRegistry* registry);

    std::string ModelPath(std::uint64_t stream_version) const;

    ContinuousTrainerConfig config_;
    StreamingDatabase* db_;
    serve::ModelRegistry* registry_;

    /// Guards drift_, stats_, rows_since_retrain_, retry_pending_ and
    /// scratch_. Held for O(batch) work only — never for mining, training or
    /// reloads.
    mutable std::mutex mu_;
    DriftDetector drift_;
    serve::PatternMatchIndex::Scratch scratch_;  ///< prequential scoring
    TrainerStats stats_;
    std::size_t rows_since_retrain_ = 0;
    bool retry_pending_ = false;

    std::mutex retrain_mu_;  ///< serializes RetrainNow end to end
};

}  // namespace dfp::stream
