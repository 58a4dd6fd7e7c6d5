#include "stream/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "fpm/eclat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfp::stream {

namespace {

ClassLabel ScoreWith(const serve::ServableModel& servable,
                     const std::vector<ItemId>& txn,
                     serve::PatternMatchIndex::Scratch* scratch) {
    servable.index.EncodeInto(txn, scratch);
    return servable.model.learner().Predict(scratch->encoded);
}

// The registry metrics the trainer updates. Registry metrics are immortal,
// so they are resolved once per process and no retrain looks one up by name.
struct TrainerMeters {
    obs::Counter& drift_detected;
    obs::Counter& retrain_failures;
    obs::Counter& retrains;
    obs::Gauge& retrain_seconds;
    obs::Gauge& staleness_seconds;
    obs::Gauge& save_seconds;
    obs::Gauge& reload_seconds;
    obs::Gauge& baseline_seconds;
};

const TrainerMeters& Meters() {
    static const TrainerMeters meters = [] {
        auto& reg = obs::Registry::Get();
        return TrainerMeters{
            reg.GetCounter("dfp.stream.drift_detected"),
            reg.GetCounter("dfp.stream.retrain_failures"),
            reg.GetCounter("dfp.stream.retrains"),
            reg.GetGauge("dfp.stream.retrain_seconds"),
            reg.GetGauge("dfp.stream.staleness_seconds"),
            reg.GetGauge("dfp.stream.retrain.save_seconds"),
            reg.GetGauge("dfp.stream.retrain.reload_seconds"),
            reg.GetGauge("dfp.stream.retrain.baseline_seconds"),
        };
    }();
    return meters;
}

std::vector<double> ClassDistribution(const TransactionDatabase& db) {
    std::vector<double> dist(db.num_classes(), 0.0);
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        dist[db.label(t)] += 1.0;
    }
    return dist;
}

}  // namespace

ContinuousTrainer::ContinuousTrainer(ContinuousTrainerConfig config,
                                     StreamingDatabase* db,
                                     serve::ModelRegistry* registry)
    : config_(std::move(config)),
      db_(db),
      registry_(registry),
      drift_(config_.drift, db->config().num_classes) {}

Result<std::unique_ptr<ContinuousTrainer>> ContinuousTrainer::Create(
    ContinuousTrainerConfig config, StreamingDatabase* db,
    serve::ModelRegistry* registry) {
    if (db == nullptr || registry == nullptr) {
        return Status::InvalidArgument(
            "trainer needs a StreamingDatabase and a ModelRegistry");
    }
    if (config.model_dir.empty()) {
        return Status::InvalidArgument("trainer needs a model_dir");
    }
    if (config.min_window == 0) {
        return Status::InvalidArgument("min_window must be > 0");
    }
    // Fail fast on an unknown learner id instead of on the first retrain.
    DFP_RETURN_NOT_OK(MakeLearnerByTypeId(config.learner_type).status());
    std::error_code ec;
    std::filesystem::create_directories(config.model_dir, ec);
    if (ec) {
        return Status::InvalidArgument(StrFormat(
            "cannot create model_dir '%s': %s", config.model_dir.c_str(),
            ec.message().c_str()));
    }
    return std::unique_ptr<ContinuousTrainer>(
        new ContinuousTrainer(std::move(config), db, registry));
}

Result<AppendResult> ContinuousTrainer::Ingest(TransactionBatch batch) {
    // Canonicalize up front: the served model scores sorted rows, exactly as
    // the StreamingDatabase stores them (its Append re-canonicalizes, which
    // is then a no-op).
    for (auto& txn : batch.transactions) {
        std::sort(txn.begin(), txn.end());
        txn.erase(std::unique(txn.begin(), txn.end()), txn.end());
    }

    std::lock_guard<std::mutex> lock(mu_);
    // Prequential scoring BEFORE the rows become training data: the served
    // model predicts each incoming row. Skipped until a model is serving.
    std::vector<std::uint8_t> correct;
    if (const serve::ServablePtr snap = registry_->Snapshot()) {
        correct.reserve(batch.size());
        for (std::size_t t = 0; t < batch.size(); ++t) {
            correct.push_back(ScoreWith(*snap, batch.transactions[t],
                                        &scratch_) == batch.labels[t]);
        }
    }

    // Append consumes the rows; the drift detector needs only the labels.
    std::vector<ClassLabel> labels = batch.labels;
    auto appended = db_->Append(std::move(batch));
    if (!appended.ok()) return appended.status();  // drift untouched

    for (const std::uint8_t bit : correct) drift_.ObservePrediction(bit != 0);
    for (const ClassLabel label : labels) drift_.ObserveLabel(label);
    rows_since_retrain_ += labels.size();
    stats_.ingested += labels.size();
    return appended;
}

Result<bool> ContinuousTrainer::MaybeRetrain() {
    std::string trigger;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (db_->window_size() < config_.min_window) return false;
        if (retry_pending_) {
            trigger = "retry";
        } else if (registry_->current_version() == 0) {
            trigger = "bootstrap";
        } else if (config_.retrain_every > 0 &&
                   rows_since_retrain_ >= config_.retrain_every) {
            trigger = "schedule";
            ++stats_.schedule_triggers;
        } else if (config_.drift_trigger) {
            const DriftVerdict verdict = drift_.Check();
            if (verdict.drifted) {
                trigger = verdict.reason;
                ++stats_.drift_triggers;
                Meters().drift_detected.Inc();
            }
        }
    }
    if (trigger.empty()) return false;
    DFP_RETURN_NOT_OK(RetrainNow(trigger));
    return true;
}

Status ContinuousTrainer::RetrainNow(const std::string& trigger) {
    std::lock_guard<std::mutex> retrain_lock(retrain_mu_);
    const auto started = std::chrono::steady_clock::now();

    // Snapshot phase, under the ingest mutex: the window and its version.
    std::shared_ptr<const TransactionDatabase> window;
    std::uint64_t stream_version = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (db_->window_size() < config_.min_window) {
            return Status::FailedPrecondition(
                StrFormat("window has %zu rows, need %zu", db_->window_size(),
                          config_.min_window));
        }
        window = db_->SnapshotWindow();
        stream_version = db_->version();
    }
    auto fail = [&](Status st) {
        std::lock_guard<std::mutex> lock(mu_);
        retry_pending_ = true;
        ++stats_.retrain_failures;
        stats_.retry_pending = true;
        Meters().retrain_failures.Inc();
        DFP_LOG_WARN(StrFormat(
            "stream: retrain (trigger=%s, stream v%llu) failed: %s — "
            "previous model keeps serving, retry armed",
            trigger.c_str(), static_cast<unsigned long long>(stream_version),
            st.message().c_str()));
        return st;
    };

    // Mine the immutable snapshot outside the ingest mutex. Singletons are
    // redundant next to I in the I ∪ Fs feature space; the window bounds the
    // work, so no budget applies.
    Result<std::vector<Pattern>> mined = std::vector<Pattern>{};
    double mine_seconds = 0.0;
    {
        obs::Span mine_span("window_mine");
        MinerConfig mc = config_.pipeline.miner;
        mc.include_singletons = false;
        mc.budget = ExecutionBudget{};
        mined = EclatMiner().Mine(*window, mc);
        mine_seconds = mine_span.ElapsedSeconds();
    }
    if (!mined.ok()) return fail(mined.status());

    // Heavy phase, off the ingest path: select → transform → learn, persist,
    // and publish through the registry's validate-then-swap reload.
    auto learner = MakeLearnerByTypeId(config_.learner_type);
    if (!learner.ok()) return fail(learner.status());
    PatternClassifierPipeline pipeline(config_.pipeline);
    if (const Status trained = pipeline.TrainWithCandidates(
            *window, std::move(*mined), std::move(*learner), mine_seconds);
        !trained.ok()) {
        return fail(trained);
    }

    const TrainerMeters& meters = Meters();
    const std::string path = ModelPath(stream_version);
    {
        obs::Span save_span("save");
        if (const Status saved = SavePipelineModelToFile(pipeline, path);
            !saved.ok()) {
            return fail(saved);
        }
        meters.save_seconds.Set(save_span.ElapsedSeconds());
    }

    // Staleness of the model being replaced, measured at swap time.
    const double staleness = registry_->SecondsSinceLastPublish();
    serve::ServablePtr published;
    {
        obs::Span reload_span("reload");
        auto reloaded = registry_->Reload(path);
        if (!reloaded.ok()) return fail(reloaded.status());
        published = std::move(*reloaded);
        meters.reload_seconds.Set(reload_span.ElapsedSeconds());
    }

    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    // Re-arm drift detection against the fresh model: baseline accuracy is
    // the training-window fit, baseline labels the window's mix. Both read
    // only this retrain's pipeline and snapshot, so they run outside the
    // ingest mutex.
    double baseline_accuracy = 0.0;
    std::vector<double> baseline_mix;
    {
        obs::Span baseline_span("drift_baseline");
        baseline_accuracy = pipeline.Accuracy(*window);
        baseline_mix = ClassDistribution(*window);
        meters.baseline_seconds.Set(baseline_span.ElapsedSeconds());
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        retry_pending_ = false;
        rows_since_retrain_ = 0;
        ++stats_.retrains;
        stats_.retry_pending = false;
        stats_.last_stream_version = stream_version;
        stats_.last_model_version = published->version;
        stats_.last_sig_rejected = pipeline.stats().num_sig_rejected;
        stats_.last_retrain_seconds = seconds;
        drift_.SetBaseline(baseline_accuracy, std::move(baseline_mix));
        drift_.ResetRecent();
    }
    meters.retrains.Inc();
    meters.retrain_seconds.Set(seconds);
    if (staleness >= 0.0) meters.staleness_seconds.Set(staleness);
    DFP_LOG_INFO(StrFormat(
        "stream: retrained (trigger=%s) on stream v%llu (%zu rows) -> model "
        "v%llu in %.3fs",
        trigger.c_str(), static_cast<unsigned long long>(stream_version),
        window->num_transactions(),
        static_cast<unsigned long long>(published->version), seconds));
    return Status::Ok();
}

TrainerStats ContinuousTrainer::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::string ContinuousTrainer::ModelPath(std::uint64_t stream_version) const {
    return StrFormat("%s/stream_model_v%llu.dfp", config_.model_dir.c_str(),
                     static_cast<unsigned long long>(stream_version));
}

}  // namespace dfp::stream
