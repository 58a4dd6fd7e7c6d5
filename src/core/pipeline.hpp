// End-to-end frequent-pattern-based classification (Section 3's three steps:
// feature generation → feature selection → model learning).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/budget.hpp"
#include "common/status.hpp"
#include "core/feature_space.hpp"
#include "core/mmrfs.hpp"
#include "data/transaction_db.hpp"
#include "fpm/miner.hpp"
#include "ml/classifier.hpp"
#include "stats/significance.hpp"

namespace dfp {

/// Which miner generates the feature candidates.
enum class MinerKind { kClosed, kEclat };

std::unique_ptr<Miner> MakeMiner(MinerKind kind);

struct PipelineConfig {
    /// Mining parameters (min_sup, budget, ...).
    MinerConfig miner;
    MinerKind miner_kind = MinerKind::kClosed;
    /// Mine each class partition separately (the paper's feature-generation
    /// step) and pool the results; otherwise mine the whole database once.
    bool per_class_mining = true;
    /// Run MMRFS (Pat_FS). When false all candidates become features (Pat_All).
    bool feature_selection = true;
    MmrfsConfig mmrfs;
    /// Statistical-significance filter over the candidate set, run before
    /// MMRFS (stats/significance.hpp, DESIGN.md §18). Default test = kNone:
    /// the stage is skipped and the pipeline is bit-identical to the
    /// unfiltered path. With a test enabled, candidates failing the corrected
    /// test are masked out of selection (or dropped from Pat_All when
    /// feature_selection is off), and the trained model records
    /// sig_test/alpha/correction provenance (core/model_io).
    SignificanceConfig significance;
    /// Include the single items I in the feature space (the paper always does).
    bool include_single_items = true;
    /// Worker threads for the parallel stages (mining fan-out, significance
    /// filter, OvO SVM): Train copies this into the miner and filter configs
    /// and calls learner->SetNumThreads(); MMRFS is serial. Trained models
    /// and selections are identical for every thread count (DESIGN.md §11).
    /// 1 = serial (the default); 0 = hardware_concurrency.
    std::size_t num_threads = 1;
    /// Overall Train budget: one wall-clock deadline shared by mining,
    /// selection and learning; the cancel token and pattern/memory caps are
    /// merged into every stage's own budget. Default = unlimited.
    ExecutionBudget budget;
    /// How Train degrades when the mining budget fires.
    struct DegradePolicy {
        /// Escalate min_sup along the IG_ub ladder (core/minsup_strategy) and
        /// re-mine when the pattern/memory cap fires; otherwise (or once the
        /// ladder's rungs or the re-mines run out) accept the truncated
        /// candidate set.
        bool escalate_min_sup = true;
    } degrade;
};

/// Timing and size diagnostics of one training run.
///
/// Thin façade over the observability registry: `Train` fills these fields
/// from its `obs::Span` phase timings and mirrors them into
/// `dfp.core.pipeline.*` gauges, so run reports (obs/report.hpp) and this
/// struct always agree. Enable `obs::EnableTracing(true)` before `Train` to
/// additionally capture the nested span tree
/// (train → mine[per-class] → pool_dedup → mmrfs → transform → learn).
struct PipelineStats {
    std::size_t num_candidates = 0;  ///< |F| after per-class pooling + dedup
    std::size_t num_selected = 0;    ///< |Fs|
    /// Candidates rejected by the significance filter (0 when disabled).
    std::size_t num_sig_rejected = 0;
    double mine_seconds = 0.0;
    double significance_seconds = 0.0;
    double select_seconds = 0.0;
    double transform_seconds = 0.0;
    double learn_seconds = 0.0;
};

/// Trains "classifier on I ∪ Fs" and predicts on raw transactions.
class PatternClassifierPipeline {
  public:
    explicit PatternClassifierPipeline(PipelineConfig config)
        : config_(std::move(config)) {}

    /// Mines, selects, transforms and trains. The pipeline takes ownership of
    /// the learner. Under config.budget, degrades gracefully instead of
    /// failing: truncated mining escalates min_sup and retries (per
    /// config.degrade), stage breaches are accepted as partial results, and
    /// budget_report() records what happened. A fired CancelToken (or a hard
    /// miner/learner error) still fails with a non-Ok Status.
    Status Train(const TransactionDatabase& train,
                 std::unique_ptr<Classifier> learner);

    /// Train with an externally mined candidate pool, skipping the mining
    /// stage: pools the candidates in canonical order (PatternLess: length,
    /// then items) with duplicates dropped, re-anchors metadata (cover,
    /// per-class counts, support) on `train`, then runs the same selection →
    /// transform → learn tail as Train. The trained model therefore depends
    /// only on the candidate set, never on the order the caller's miner
    /// emitted it. Candidates need only their itemsets filled. This is the
    /// streaming entry point: stream::ContinuousTrainer feeds it the patterns
    /// it mined from the sliding window's snapshot (DESIGN.md §16).
    /// `mine_seconds` is the time the caller spent mining `candidates`;
    /// stats().mine_seconds reports it plus the pooling, so the mine stage
    /// covers the whole mine.
    Status TrainWithCandidates(const TransactionDatabase& train,
                               std::vector<Pattern> candidates,
                               std::unique_ptr<Classifier> learner,
                               double mine_seconds = 0.0);

    /// Predicts the class of a raw transaction (sorted item list).
    ClassLabel Predict(const std::vector<ItemId>& transaction) const;

    /// Accuracy over a held-out database: the learner scores the rows of
    /// its Transform, which equal encoding each transaction.
    double Accuracy(const TransactionDatabase& test) const;

    const PipelineStats& stats() const { return stats_; }
    /// How the last Train run degraded under its budget (empty when it ran
    /// to completion without breaches, escalations or retries).
    const BudgetReport& budget_report() const { return budget_report_; }
    const FeatureSpace& feature_space() const { return feature_space_; }
    const std::vector<Pattern>& candidates() const { return candidates_; }
    const Classifier* learner() const { return learner_.get(); }
    /// Key/value provenance of the last Train run, persisted into saved
    /// models (core/model_io). Empty unless the significance filter ran:
    /// sig_test, alpha, correction, sig_rejected (+ min_odds_ratio for odds).
    const std::vector<std::pair<std::string, std::string>>& provenance() const {
        return provenance_;
    }

    /// Mines and pools candidates exactly as Train does, without training —
    /// for benches that inspect the candidate set. Strict semantics: a
    /// budget breach becomes Cancelled / ResourceExhausted.
    Result<std::vector<Pattern>> MineCandidates(
        const TransactionDatabase& train) const;

  private:
    /// Budget-aware single mining attempt over all class partitions: pools,
    /// dedups and re-anchors metadata like MineCandidates, but returns the
    /// partial pool plus the first breach instead of failing.
    Result<MineOutcome<Pattern>> MineCandidatesBudgeted(
        const TransactionDatabase& train, const MinerConfig& mine_config) const;

    /// Shared selection → transform → learn tail. Consumes candidates_ (set
    /// by the caller), fills stats_/feature_space_/learner_, publishes the
    /// run's stats and finalizes budget_report_ on every exit path. `timer`
    /// carries the remaining run deadline; `busy_mark`/`wall_mark` are the
    /// ThreadPool::ProcessBusyNs()/ProcessWorkerWallNs() values at Train
    /// entry, diffed on success into the per-train
    /// dfp.parallel.train_utilization gauge.
    Status FinishTrain(const TransactionDatabase& train,
                       std::unique_ptr<Classifier> learner,
                       DeadlineTimer& timer, std::size_t resolved_threads,
                       std::size_t guard_mark, std::uint64_t busy_mark,
                       std::uint64_t wall_mark);

    /// Moves the guard events recorded since `guard_mark` into
    /// budget_report_.events (call before every return from a Train flavour).
    void FinalizeReport(std::size_t guard_mark);

    PipelineConfig config_;
    PipelineStats stats_;
    BudgetReport budget_report_;
    std::vector<std::pair<std::string, std::string>> provenance_;
    FeatureSpace feature_space_;
    std::vector<Pattern> candidates_;
    std::unique_ptr<Classifier> learner_;
    std::size_t num_classes_ = 0;
    mutable PatternMatchIndex::Scratch scratch_;  // matcher state for Predict
};

}  // namespace dfp
