#include "core/pipeline.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/string_util.hpp"
#include "core/minsup_strategy.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfp {

std::unique_ptr<Miner> MakeMiner(MinerKind kind) {
    switch (kind) {
        case MinerKind::kClosed: return std::make_unique<ClosedMiner>();
        case MinerKind::kEclat: return std::make_unique<EclatMiner>();
    }
    return nullptr;
}

namespace {

// Budgeted mining re-mines at most this many times after the first attempt,
// each at the next of this many rungs of the IG_ub escalation ladder.
constexpr std::size_t kMaxMineRetries = 3;
constexpr std::size_t kLadderRungs = 4;

// Hash of a sorted itemset for candidate dedup across class partitions.
struct ItemsetHash {
    std::size_t operator()(const Itemset& items) const {
        std::size_t h = 1469598103934665603ull;
        for (ItemId i : items) {
            h ^= i;
            h *= 1099511628211ull;
        }
        return h;
    }
};

// The registry metrics every Train() updates. Registry metrics are immortal,
// so they are resolved once per process and no run looks one up by name.
struct PipelineMeters {
    obs::Gauge& num_candidates;
    obs::Gauge& num_selected;
    obs::Gauge& num_sig_rejected;
    obs::Gauge& mine_seconds;
    obs::Gauge& significance_seconds;
    obs::Gauge& select_seconds;
    obs::Gauge& transform_seconds;
    obs::Gauge& learn_seconds;
    obs::Counter& train_runs;
    obs::Gauge& pipeline_threads;
    obs::Gauge& train_utilization;
};

const PipelineMeters& Meters() {
    static const PipelineMeters meters = [] {
        auto& reg = obs::Registry::Get();
        return PipelineMeters{
            reg.GetGauge("dfp.core.pipeline.num_candidates"),
            reg.GetGauge("dfp.core.pipeline.num_selected"),
            reg.GetGauge("dfp.core.pipeline.num_sig_rejected"),
            reg.GetGauge("dfp.core.pipeline.mine_seconds"),
            reg.GetGauge("dfp.core.pipeline.significance_seconds"),
            reg.GetGauge("dfp.core.pipeline.select_seconds"),
            reg.GetGauge("dfp.core.pipeline.transform_seconds"),
            reg.GetGauge("dfp.core.pipeline.learn_seconds"),
            reg.GetCounter("dfp.core.pipeline.train_runs"),
            reg.GetGauge("dfp.parallel.pipeline_threads"),
            reg.GetGauge("dfp.parallel.train_utilization"),
        };
    }();
    return meters;
}

// Mirrors a finished run's stats into the registry (the struct stays the
// caller-facing façade; the registry carries the same numbers into reports).
void PublishPipelineStats(const PipelineStats& stats) {
    const PipelineMeters& m = Meters();
    m.num_candidates.Set(static_cast<double>(stats.num_candidates));
    m.num_selected.Set(static_cast<double>(stats.num_selected));
    m.num_sig_rejected.Set(static_cast<double>(stats.num_sig_rejected));
    m.mine_seconds.Set(stats.mine_seconds);
    m.significance_seconds.Set(stats.significance_seconds);
    m.select_seconds.Set(stats.select_seconds);
    m.transform_seconds.Set(stats.transform_seconds);
    m.learn_seconds.Set(stats.learn_seconds);
    m.train_runs.Inc();
}

}  // namespace

Result<MineOutcome<Pattern>> PatternClassifierPipeline::MineCandidatesBudgeted(
    const TransactionDatabase& train, const MinerConfig& mine_config) const {
    const std::unique_ptr<Miner> miner = MakeMiner(config_.miner_kind);
    MinerConfig partition_config = mine_config;
    // Single items are always part of the feature space I ∪ F; keeping them as
    // pattern candidates would only duplicate coordinates.
    partition_config.include_singletons = false;

    // One deadline shared by all partitions: each gets the remaining clock,
    // not a fresh window.
    DeadlineTimer timer(mine_config.budget.time_budget_ms);
    MineOutcome<Pattern> outcome;
    std::vector<std::vector<Pattern>> partitions;
    auto mine_one = [&](const TransactionDatabase& part,
                        obs::Span& span) -> Status {
        partition_config.budget.time_budget_ms = timer.remaining_ms();
        auto mined = miner->MineBudgeted(part, partition_config);
        if (!mined.ok()) return mined.status();
        MineOutcome<Pattern> part_outcome = std::move(mined).value();
        span.Annotate("patterns",
                      static_cast<double>(part_outcome.patterns.size()));
        if (part_outcome.breach != BudgetBreach::kNone &&
            outcome.breach == BudgetBreach::kNone) {
            outcome.breach = part_outcome.breach;
        }
        partitions.push_back(std::move(part_outcome.patterns));
        return Status::Ok();
    };

    if (config_.per_class_mining) {
        for (ClassLabel c = 0; c < train.num_classes(); ++c) {
            // A fired token stops everything; other breaches still let later
            // partitions mine with whatever budget remains.
            if (outcome.breach == BudgetBreach::kCancelled) break;
            TransactionDatabase partition = train.FilterByClass(c);
            if (partition.num_transactions() == 0) continue;
            obs::Span span(
                StrFormat("mine.class_%u", static_cast<unsigned>(c)));
            DFP_RETURN_NOT_OK(mine_one(partition, span));
        }
    } else {
        obs::Span span("mine.all");
        DFP_RETURN_NOT_OK(mine_one(train, span));
    }

    // Pool the results, then re-anchor metadata (cover, per-class counts,
    // support) on the full training database. One mine emits each itemset at
    // one DFS position, so its output moves in whole; only per-class
    // partitions can repeat an itemset, and a later repeat is dropped.
    obs::Span pool_span("pool_dedup");
    if (partitions.size() == 1) {
        outcome.patterns = std::move(partitions.front());
    } else {
        std::unordered_set<Itemset, ItemsetHash> seen;
        for (auto& mined : partitions) {
            for (Pattern& p : mined) {
                if (seen.insert(p.items).second) {
                    outcome.patterns.push_back(std::move(p));
                }
            }
        }
    }
    AttachMetadata(train, &outcome.patterns);
    pool_span.Annotate("pooled", static_cast<double>(outcome.patterns.size()));
    return outcome;
}

Result<std::vector<Pattern>> PatternClassifierPipeline::MineCandidates(
    const TransactionDatabase& train) const {
    auto mined = MineCandidatesBudgeted(train, config_.miner);
    if (!mined.ok()) return mined.status();
    MineOutcome<Pattern> outcome = std::move(mined).value();
    if (outcome.breach == BudgetBreach::kCancelled) {
        return Status::Cancelled(
            StrFormat("candidate mining cancelled after %zu patterns",
                      outcome.patterns.size()));
    }
    if (outcome.truncated()) {
        return Status::ResourceExhausted(
            StrFormat("candidate mining stopped by budget (%s) after %zu "
                      "patterns",
                      BudgetBreachName(outcome.breach),
                      outcome.patterns.size()));
    }
    return std::move(outcome.patterns);
}

Status PatternClassifierPipeline::Train(const TransactionDatabase& train,
                                        std::unique_ptr<Classifier> learner) {
    if (learner == nullptr) {
        return Status::InvalidArgument("pipeline requires a learner");
    }
    if (train.num_transactions() == 0) {
        return Status::InvalidArgument("empty training database");
    }
    obs::Span train_span("train");
    budget_report_ = BudgetReport{};
    // One thread knob for the whole run, mirrored into every stage and the
    // run report (quickstart --threads lands here).
    const std::size_t resolved_threads = ResolveNumThreads(config_.num_threads);
    Meters().pipeline_threads.Set(static_cast<double>(resolved_threads));
    const std::size_t guard_mark = GuardLog::Get().size();
    // Worker-utilization bookends: the stage pools fold their busy/wall time
    // into process-wide counters when they retire, so the delta across Train
    // is exactly this run's pools (DESIGN.md §17).
    const std::uint64_t busy_mark = ThreadPool::ProcessBusyNs();
    const std::uint64_t wall_mark = ThreadPool::ProcessWorkerWallNs();
    // One wall-clock deadline for the whole run; every stage gets whatever
    // remains of it.
    DeadlineTimer timer(config_.budget.time_budget_ms);
    const std::size_t n = train.num_transactions();

    {
        obs::Span mine_span("mine");
        MinerConfig mc = config_.miner;
        mc.num_threads = resolved_threads;
        // Fold the pipeline-wide caps/token into the miner's own budget; the
        // tighter constraint wins.
        if (mc.budget.cancel == nullptr) mc.budget.cancel = config_.budget.cancel;
        mc.budget.max_patterns =
            std::min(mc.budget.max_patterns, config_.budget.max_patterns);
        if (config_.budget.max_memory_bytes != 0 &&
            (mc.budget.max_memory_bytes == 0 ||
             config_.budget.max_memory_bytes < mc.budget.max_memory_bytes)) {
            mc.budget.max_memory_bytes = config_.budget.max_memory_bytes;
        }

        std::vector<MinSupRecommendation> ladder;
        std::size_t rung = 0;
        for (;;) {
            ++budget_report_.mine_attempts;
            mc.budget.time_budget_ms = timer.remaining_ms();
            auto mined = MineCandidatesBudgeted(train, mc);
            if (!mined.ok()) return mined.status();
            MineOutcome<Pattern> outcome = std::move(mined).value();
            if (outcome.breach == BudgetBreach::kCancelled) {
                budget_report_.mine_breach = outcome.breach;
                FinalizeReport(guard_mark);
                return Status::Cancelled(StrFormat(
                    "pipeline training cancelled during mining (%zu patterns "
                    "pooled)",
                    outcome.patterns.size()));
            }
            // A deadline breach is final — re-mining has no clock left. The
            // pattern/memory cap is what min_sup escalation can relieve.
            const bool capped = outcome.breach == BudgetBreach::kPatternCap ||
                                outcome.breach == BudgetBreach::kMemoryCap;
            const bool retry =
                capped && config_.degrade.escalate_min_sup &&
                budget_report_.mine_attempts <= kMaxMineRetries &&
                !timer.expired();
            if (retry && ladder.empty()) {
                std::vector<double> priors(train.num_classes(), 0.0);
                for (std::size_t t = 0; t < n; ++t) {
                    priors[train.label(t)] += 1.0;
                }
                for (double& p : priors) p /= static_cast<double>(n);
                const double theta_start =
                    static_cast<double>(ResolveMinSup(mc, n)) /
                    static_cast<double>(n);
                ladder = MinSupEscalationLadder(theta_start, priors, n,
                                                kLadderRungs);
            }
            if (!retry || rung >= ladder.size()) {
                // Accept the (possibly truncated) pool.
                budget_report_.mine_breach = outcome.breach;
                if (outcome.breach != BudgetBreach::kNone) {
                    RecordBreach("core.pipeline.mine", outcome.breach,
                                 static_cast<double>(outcome.patterns.size()));
                }
                candidates_ = std::move(outcome.patterns);
                break;
            }
            const MinSupRecommendation& next = ladder[rung++];
            mc.min_sup_rel = -1.0;
            mc.min_sup_abs = next.min_sup_abs;
            ++budget_report_.minsup_escalations;
            budget_report_.escalated_min_sup_rel = next.theta_star;
            GuardLog::Get().Record("core.pipeline", "minsup_escalated",
                                   next.theta_star);
            DFP_LOG_WARN(StrFormat(
                "pipeline: mining breached budget (%s); escalating min_sup to "
                "%zu (θ=%.4g) and re-mining (attempt %zu)",
                BudgetBreachName(outcome.breach), next.min_sup_abs,
                next.theta_star, budget_report_.mine_attempts + 1));
        }
        mine_span.Annotate("candidates", static_cast<double>(candidates_.size()));
        stats_.mine_seconds = mine_span.ElapsedSeconds();
    }
    stats_.num_candidates = candidates_.size();

    return FinishTrain(train, std::move(learner), timer, resolved_threads,
                       guard_mark, busy_mark, wall_mark);
}

Status PatternClassifierPipeline::TrainWithCandidates(
    const TransactionDatabase& train, std::vector<Pattern> candidates,
    std::unique_ptr<Classifier> learner, double mine_seconds) {
    if (learner == nullptr) {
        return Status::InvalidArgument("pipeline requires a learner");
    }
    if (train.num_transactions() == 0) {
        return Status::InvalidArgument("empty training database");
    }
    obs::Span train_span("train");
    budget_report_ = BudgetReport{};
    const std::size_t resolved_threads = ResolveNumThreads(config_.num_threads);
    Meters().pipeline_threads.Set(static_cast<double>(resolved_threads));
    const std::size_t guard_mark = GuardLog::Get().size();
    const std::uint64_t busy_mark = ThreadPool::ProcessBusyNs();
    const std::uint64_t wall_mark = ThreadPool::ProcessWorkerWallNs();
    DeadlineTimer timer(config_.budget.time_budget_ms);

    {
        // Pool in canonical order so MMRFS ties depend only on the candidate
        // set: drop singletons (redundant next to the single-item block of
        // I ∪ F), sort by PatternLess, drop duplicate itemsets, then re-anchor
        // cover/support/class counts on this training database.
        obs::Span pool_span("pool_dedup");
        candidates.erase(
            std::remove_if(candidates.begin(), candidates.end(),
                           [](const Pattern& p) { return p.items.size() <= 1; }),
            candidates.end());
        SortPatterns(candidates);
        candidates.erase(
            std::unique(candidates.begin(), candidates.end(),
                        [](const Pattern& a, const Pattern& b) {
                            return a.items == b.items;
                        }),
            candidates.end());
        candidates_ = std::move(candidates);
        AttachMetadata(train, &candidates_);
        pool_span.Annotate("pooled", static_cast<double>(candidates_.size()));
        stats_.mine_seconds = mine_seconds + pool_span.ElapsedSeconds();
    }
    stats_.num_candidates = candidates_.size();

    return FinishTrain(train, std::move(learner), timer, resolved_threads,
                       guard_mark, busy_mark, wall_mark);
}

Status PatternClassifierPipeline::FinishTrain(const TransactionDatabase& train,
                                              std::unique_ptr<Classifier> learner,
                                              DeadlineTimer& timer,
                                              std::size_t resolved_threads,
                                              std::size_t guard_mark,
                                              std::uint64_t busy_mark,
                                              std::uint64_t wall_mark) {
    provenance_.clear();
    stats_.num_sig_rejected = 0;
    stats_.significance_seconds = 0.0;
    SignificanceResult sig;
    const std::vector<char>* sig_mask = nullptr;
    if (config_.significance.test != SigTest::kNone && !candidates_.empty()) {
        obs::Span sig_span("significance");
        SignificanceConfig sig_config = config_.significance;
        sig_config.num_threads = resolved_threads;
        if (sig_config.budget.cancel == nullptr) {
            sig_config.budget.cancel = config_.budget.cancel;
        }
        sig_config.budget.time_budget_ms = timer.remaining_ms();
        sig = RunSignificanceFilter(train, candidates_, sig_config);
        if (sig.breach == BudgetBreach::kCancelled) {
            budget_report_.select_breach = sig.breach;
            FinalizeReport(guard_mark);
            return Status::Cancelled(
                "pipeline training cancelled during significance filtering");
        }
        // Non-cancel breach = the filter failed open (kept everything, guard
        // event already recorded); a null mask reproduces that exactly.
        if (sig.breach == BudgetBreach::kNone) sig_mask = &sig.keep;
        stats_.num_sig_rejected = sig.rejected;
        stats_.significance_seconds = sig_span.ElapsedSeconds();
        sig_span.Annotate("rejected", static_cast<double>(sig.rejected));
        provenance_.emplace_back("sig_test",
                                 SigTestName(config_.significance.test));
        provenance_.emplace_back(
            "alpha", StrFormat("%g", config_.significance.alpha));
        provenance_.emplace_back(
            "correction", CorrectionName(config_.significance.correction));
        if (config_.significance.test == SigTest::kOddsRatio) {
            provenance_.emplace_back(
                "min_odds_ratio",
                StrFormat("%g", config_.significance.min_odds_ratio));
        }
        provenance_.emplace_back("sig_rejected", std::to_string(sig.rejected));
    }

    // The chosen candidates, as indices into candidates_ in feature order.
    std::vector<std::size_t> chosen;
    {
        obs::Span select_span("mmrfs");
        if (config_.feature_selection) {
            MmrfsConfig sc = config_.mmrfs;
            if (sc.budget.cancel == nullptr) {
                sc.budget.cancel = config_.budget.cancel;
            }
            sc.budget.time_budget_ms = timer.remaining_ms();
            sc.candidate_mask = sig_mask;
            MmrfsResult selection = RunMmrfs(train, candidates_, sc);
            if (selection.breach == BudgetBreach::kCancelled) {
                budget_report_.select_breach = selection.breach;
                FinalizeReport(guard_mark);
                return Status::Cancelled(
                    "pipeline training cancelled during feature selection");
            }
            // Deadline/cap breach: the greedily selected prefix is still a
            // valid (if smaller) feature set — keep it.
            budget_report_.select_breach = selection.breach;
            chosen = std::move(selection.selected);
        } else {
            // Pat_All; with the filter on, the keep-mask is the whole story.
            chosen.reserve(candidates_.size());
            for (std::size_t i = 0; i < candidates_.size(); ++i) {
                if (sig_mask == nullptr || (*sig_mask)[i] != 0) chosen.push_back(i);
            }
        }
        select_span.Annotate("selected", static_cast<double>(chosen.size()));
        stats_.select_seconds = select_span.ElapsedSeconds();
    }
    stats_.num_selected = chosen.size();

    FeatureMatrix x;
    {
        // The training matrix is Transform(train) without re-deriving a
        // cover: item columns are train's item covers, and every candidate
        // already carries its cover over train (AttachMetadata in Train and
        // TrainWithCandidates). The space keeps itemsets and supports only.
        // The columns' class counts are held the same way (train's item
        // table, each candidate's class_counts), so x carries them and the
        // learner need not count them again.
        obs::Span transform_span("transform");
        const std::size_t items =
            config_.include_single_items ? train.num_items() : 0;
        std::vector<BitVector> columns;
        std::vector<std::size_t> class_counts;
        columns.reserve(items + chosen.size());
        class_counts.reserve((items + chosen.size()) * train.num_classes());
        for (ItemId i = 0; i < items; ++i) columns.push_back(train.ItemCover(i));
        if (items > 0) {
            const std::vector<std::size_t>& item_counts = train.ItemClassCounts();
            class_counts.insert(class_counts.end(), item_counts.begin(),
                                item_counts.end());
        }
        std::vector<Pattern> features;
        features.reserve(chosen.size());
        for (std::size_t k : chosen) {
            const Pattern& candidate = candidates_[k];
            if (candidate.length() <= 1) continue;  // Build drops these too
            columns.push_back(candidate.cover);
            class_counts.insert(class_counts.end(), candidate.class_counts.begin(),
                                candidate.class_counts.end());
            Pattern& feature = features.emplace_back();
            feature.items = candidate.items;
            feature.support = candidate.support;
        }
        feature_space_ = FeatureSpace::Build(items, std::move(features));
        x = FeatureMatrix(train.num_transactions(), std::move(columns));
        x.SetClassCounts(std::move(class_counts), train.num_classes());
        transform_span.Annotate("dim", static_cast<double>(feature_space_.dim()));
        stats_.transform_seconds = transform_span.ElapsedSeconds();
    }

    {
        obs::Span learn_span("learn");
        num_classes_ = train.num_classes();
        ExecutionBudget learn_budget = config_.budget;
        learn_budget.time_budget_ms = timer.remaining_ms();
        learner->SetExecutionBudget(learn_budget);
        learner->SetNumThreads(resolved_threads);
        const Status learned = learner->Train(x, train.labels(), num_classes_);
        if (!learned.ok()) {
            FinalizeReport(guard_mark);
            return learned;
        }
        stats_.learn_seconds = learn_span.ElapsedSeconds();
    }
    learner_ = std::move(learner);
    FinalizeReport(guard_mark);
    // Fraction of worker wall time the run's pools spent executing tasks
    // (1.0 when the run was serial and no pool existed): the at-a-glance
    // "did the fan-out actually keep the workers fed" gauge per train.
    const std::uint64_t busy_ns = ThreadPool::ProcessBusyNs() - busy_mark;
    const std::uint64_t wall_ns = ThreadPool::ProcessWorkerWallNs() - wall_mark;
    Meters().train_utilization.Set(
        wall_ns > 0
            ? static_cast<double>(busy_ns) / static_cast<double>(wall_ns)
            : 1.0);
    PublishPipelineStats(stats_);
    if (budget_report_.degraded()) {
        DFP_LOG_WARN(StrFormat(
            "pipeline: trained degraded (mine=%s after %zu attempt(s), "
            "select=%s, %zu escalation(s), %zu guard event(s))",
            BudgetBreachName(budget_report_.mine_breach),
            budget_report_.mine_attempts,
            BudgetBreachName(budget_report_.select_breach),
            budget_report_.minsup_escalations, budget_report_.events.size()));
    }
    DFP_LOG_DEBUG(StrFormat(
        "pipeline: mined %zu candidates (%.3fs), selected %zu (%.3fs), "
        "dim %zu, learned in %.3fs",
        stats_.num_candidates, stats_.mine_seconds, stats_.num_selected,
        stats_.select_seconds, feature_space_.dim(), stats_.learn_seconds));
    return Status::Ok();
}

void PatternClassifierPipeline::FinalizeReport(std::size_t guard_mark) {
    // Collects the guard events recorded since Train started (the log is
    // process-wide; run reports drain it separately).
    std::vector<GuardEvent> events = GuardLog::Get().Snapshot();
    const std::size_t from = std::min(guard_mark, events.size());
    budget_report_.events.assign(
        std::make_move_iterator(events.begin() +
                                static_cast<std::ptrdiff_t>(from)),
        std::make_move_iterator(events.end()));
}

ClassLabel PatternClassifierPipeline::Predict(
    const std::vector<ItemId>& transaction) const {
    return learner_->Predict(feature_space_.Encode(transaction, &scratch_));
}

double PatternClassifierPipeline::Accuracy(const TransactionDatabase& test) const {
    return learner_->Accuracy(feature_space_.Transform(test), test.labels());
}

}  // namespace dfp
