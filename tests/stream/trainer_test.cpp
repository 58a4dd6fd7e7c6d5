// ContinuousTrainer unit suite: config validation, bootstrap/schedule/drift
// retrain triggers, prequential drift detection across a concept change,
// failpoint-injected reload failure (previous model keeps serving, retry
// armed and eventually succeeding), ingestion racing retrains, the
// retrain's window mine (its patterns and its share of the mine stage), the
// save / reload / drift-baseline split of the rest of a retrain, and the
// candidate-order independence of the model a retrain trains, for every
// serializable learner, and the drift detector's verdicts and gauges.
#include "stream/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/model_io.hpp"
#include "fpm/eclat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/registry.hpp"
#include "stream/drift.hpp"
#include "stream/streaming_db.hpp"
#include "testutil/apriori.hpp"
#include "testutil/drift_source.hpp"
#include "testutil/scratch_path.hpp"

namespace dfp::stream {
namespace {

class TrainerTest : public ::testing::Test {
  protected:
    void SetUp() override { FailpointRegistry::Get().DisableAll(); }
    void TearDown() override { FailpointRegistry::Get().DisableAll(); }

    // A model directory the fixture removes when the test ends.
    std::string ModelDir(const std::string& tag) {
        dirs_.push_back(
            std::make_unique<testutil::ScratchPath>("dfp_stream_" + tag));
        return dirs_.back()->str();
    }

  private:
    std::vector<std::unique_ptr<testutil::ScratchPath>> dirs_;
};

testutil::DriftSourceConfig SourceConfig(std::uint64_t seed) {
    testutil::DriftSourceConfig config;
    config.num_phases = 2;
    config.rows_per_phase = 900;
    config.eval_rows = 250;
    config.attributes = 8;
    config.arity = 3;
    config.seed = seed;
    return config;
}

ContinuousTrainerConfig TrainerConfig(const std::string& model_dir) {
    ContinuousTrainerConfig config;
    config.pipeline.miner.min_sup_rel = 0.12;
    config.pipeline.miner.max_pattern_len = 4;
    config.pipeline.mmrfs.coverage_delta = 2;
    config.learner_type = "nb";
    config.min_window = 200;
    config.drift.window = 160;
    config.drift.min_observations = 80;
    config.drift.accuracy_drop = 0.12;
    config.drift.class_shift = 0.35;
    config.model_dir = model_dir;
    return config;
}

/// Accuracy of the currently served model over a held-out database, scored
/// through the same index path the engine uses.
double ServedAccuracy(const serve::ModelRegistry& registry,
                      const TransactionDatabase& eval) {
    const serve::ServablePtr snap = registry.Snapshot();
    if (snap == nullptr || eval.num_transactions() == 0) return 0.0;
    serve::PatternMatchIndex::Scratch scratch;
    std::size_t correct = 0;
    for (std::size_t t = 0; t < eval.num_transactions(); ++t) {
        snap->index.InitScratch(&scratch);
        snap->index.EncodeInto(eval.transaction(t), &scratch);
        if (snap->model.learner().Predict(scratch.encoded) == eval.label(t)) {
            ++correct;
        }
    }
    return static_cast<double>(correct) /
           static_cast<double>(eval.num_transactions());
}

StreamConfig StreamFor(const testutil::DriftSource& source,
                       std::size_t capacity) {
    StreamConfig config;
    config.num_items = source.num_items();
    config.num_classes = source.num_classes();
    config.window_capacity = capacity;
    return config;
}

TEST_F(TrainerTest, CreateValidatesConfig) {
    testutil::DriftSource source(SourceConfig(3));
    auto db = StreamingDatabase::Create(StreamFor(source, 256));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;

    EXPECT_FALSE(
        ContinuousTrainer::Create(TrainerConfig(""), db->get(), &registry)
            .ok());
    EXPECT_FALSE(ContinuousTrainer::Create(TrainerConfig("/tmp/x"), nullptr,
                                           &registry)
                     .ok());
    ContinuousTrainerConfig bad_learner = TrainerConfig("/tmp/x");
    bad_learner.learner_type = "no-such-learner";
    EXPECT_FALSE(
        ContinuousTrainer::Create(bad_learner, db->get(), &registry).ok());
    bad_learner.learner_type = "pegasos";  // a learner id since removed
    EXPECT_FALSE(
        ContinuousTrainer::Create(bad_learner, db->get(), &registry).ok());
    ContinuousTrainerConfig no_window = TrainerConfig("/tmp/x");
    no_window.min_window = 0;
    EXPECT_FALSE(
        ContinuousTrainer::Create(no_window, db->get(), &registry).ok());
}

TEST_F(TrainerTest, BootstrapsFirstModelOnceWindowFills) {
    testutil::DriftSource source(SourceConfig(4));
    auto db = StreamingDatabase::Create(StreamFor(source, 400));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    auto trainer = ContinuousTrainer::Create(TrainerConfig(ModelDir("boot")),
                                             db->get(), &registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();

    // Below min_window: the pump does nothing.
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(100)).ok());
    auto pumped = (*trainer)->MaybeRetrain();
    ASSERT_TRUE(pumped.ok());
    EXPECT_FALSE(*pumped);
    EXPECT_EQ(registry.current_version(), 0u);

    // Window filled: bootstrap retrain publishes model v1.
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(200)).ok());
    pumped = (*trainer)->MaybeRetrain();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
    EXPECT_TRUE(*pumped);
    EXPECT_EQ(registry.current_version(), 1u);
    const TrainerStats stats = (*trainer)->stats();
    EXPECT_EQ(stats.retrains, 1u);
    EXPECT_EQ(stats.retrain_failures, 0u);
    EXPECT_GT(stats.last_model_version, 0u);

    // The bootstrapped model actually fits the phase it trained on.
    EXPECT_GE(ServedAccuracy(registry, source.EvalSet(0)), 0.70);
}

TEST_F(TrainerTest, ScheduleTriggersRetrainEveryNRows) {
    testutil::DriftSource source(SourceConfig(5));
    auto db = StreamingDatabase::Create(StreamFor(source, 400));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    ContinuousTrainerConfig config = TrainerConfig(ModelDir("sched"));
    config.retrain_every = 300;
    config.drift_trigger = false;
    auto trainer = ContinuousTrainer::Create(config, db->get(), &registry);
    ASSERT_TRUE(trainer.ok());

    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(300)).ok());
    ASSERT_TRUE((*trainer)->MaybeRetrain().ok());  // bootstrap
    ASSERT_EQ(registry.current_version(), 1u);

    // 299 rows since retrain: no trigger. One more row: schedule fires.
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(299)).ok());
    auto pumped = (*trainer)->MaybeRetrain();
    ASSERT_TRUE(pumped.ok());
    EXPECT_FALSE(*pumped);
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(1)).ok());
    pumped = (*trainer)->MaybeRetrain();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
    EXPECT_TRUE(*pumped);
    EXPECT_EQ(registry.current_version(), 2u);
    EXPECT_EQ((*trainer)->stats().schedule_triggers, 1u);
}

TEST_F(TrainerTest, DetectsDriftAndRecovers) {
    testutil::DriftSource source(SourceConfig(6));
    auto db = StreamingDatabase::Create(StreamFor(source, 500));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    auto trainer = ContinuousTrainer::Create(TrainerConfig(ModelDir("drift")),
                                             db->get(), &registry);
    ASSERT_TRUE(trainer.ok());

    // Phase 0: fill the window and bootstrap.
    while (source.PhaseOf(source.position()) == 0 && !source.exhausted()) {
        ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(50)).ok());
        ASSERT_TRUE((*trainer)->MaybeRetrain().ok());
    }
    const std::uint64_t phase0_version = registry.current_version();
    ASSERT_GT(phase0_version, 0u);
    const double phase0_acc = ServedAccuracy(registry, source.EvalSet(0));
    EXPECT_GE(phase0_acc, 0.70);

    // Phase 1: the concept changed. Prequential accuracy collapses, the
    // detector fires, the trainer retrains on the new window.
    while (!source.exhausted()) {
        ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(50)).ok());
        ASSERT_TRUE((*trainer)->MaybeRetrain().ok());
    }
    const TrainerStats stats = (*trainer)->stats();
    EXPECT_GT(stats.drift_triggers, 0u);
    EXPECT_GT(registry.current_version(), phase0_version);
    const double phase1_acc = ServedAccuracy(registry, source.EvalSet(1));
    EXPECT_GE(phase1_acc, phase0_acc - 0.10)
        << "accuracy did not recover after drift";
}

TEST_F(TrainerTest, ReloadFailureLeavesPreviousModelServingAndRetries) {
    testutil::DriftSource source(SourceConfig(7));
    auto db = StreamingDatabase::Create(StreamFor(source, 400));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    ContinuousTrainerConfig config = TrainerConfig(ModelDir("failpoint"));
    config.retrain_every = 200;
    config.drift_trigger = false;
    auto trainer = ContinuousTrainer::Create(config, db->get(), &registry);
    ASSERT_TRUE(trainer.ok());

    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(300)).ok());
    ASSERT_TRUE((*trainer)->MaybeRetrain().ok());
    ASSERT_EQ(registry.current_version(), 1u);

    // Arm a one-shot validation failure: the next reload fails after a full
    // train cycle, the previous version must keep serving.
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Configure("serve.registry.validate=nth(1)", 1)
                    .ok());
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(200)).ok());
    auto pumped = (*trainer)->MaybeRetrain();
    EXPECT_FALSE(pumped.ok());  // the triggered retrain failed to publish
    EXPECT_EQ(registry.current_version(), 1u) << "failed reload evicted model";
    TrainerStats stats = (*trainer)->stats();
    EXPECT_EQ(stats.retrain_failures, 1u);
    EXPECT_TRUE(stats.retry_pending);

    // The failpoint was one-shot: the armed retry succeeds on the next pump
    // without any new data.
    pumped = (*trainer)->MaybeRetrain();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
    EXPECT_TRUE(*pumped);
    EXPECT_EQ(registry.current_version(), 2u);
    stats = (*trainer)->stats();
    EXPECT_FALSE(stats.retry_pending);
    EXPECT_EQ(stats.retrains, 2u);
}

TEST_F(TrainerTest, IngestKeepsRunningWhileRetrainsMine) {
    // RetrainNow holds the ingest mutex only to take the window snapshot:
    // mining, training and the reload race a writer that keeps appending.
    testutil::DriftSource source(SourceConfig(9));
    auto db = StreamingDatabase::Create(StreamFor(source, 400));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    ContinuousTrainerConfig config = TrainerConfig(ModelDir("race"));
    config.drift_trigger = false;
    auto trainer = ContinuousTrainer::Create(config, db->get(), &registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(200)).ok());

    std::atomic<bool> writer_done{false};
    bool writer_ok = true;
    std::thread writer([&] {
        while (writer_ok && !source.exhausted()) {
            writer_ok = (*trainer)->Ingest(source.NextBatch(20)).ok();
        }
        writer_done.store(true);
    });
    std::size_t retrains = 0;
    bool retrains_ok = true;
    while (retrains_ok && (retrains < 3 || !writer_done.load())) {
        retrains_ok = (*trainer)->RetrainNow("race").ok();
        if (retrains_ok) ++retrains;
    }
    writer.join();

    EXPECT_TRUE(writer_ok);
    EXPECT_TRUE(retrains_ok);
    const TrainerStats stats = (*trainer)->stats();
    EXPECT_EQ(stats.ingested, source.total_rows());
    EXPECT_EQ(stats.retrains, retrains);
    EXPECT_EQ(stats.retrain_failures, 0u);
    EXPECT_LE(stats.last_stream_version, (*db)->version());
    EXPECT_EQ(registry.current_version(), retrains);
}

TEST_F(TrainerTest, IngestCanonicalizesRowsIntoWindow) {
    testutil::DriftSource source(SourceConfig(10));
    auto db = StreamingDatabase::Create(StreamFor(source, 8));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    auto trainer = ContinuousTrainer::Create(TrainerConfig(ModelDir("canon")),
                                             db->get(), &registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();

    TransactionBatch batch;
    batch.transactions = {{5, 1, 5, 3}, {2, 0}};
    batch.labels = {1, 0};
    const auto appended = (*trainer)->Ingest(std::move(batch));
    ASSERT_TRUE(appended.ok()) << appended.status();
    EXPECT_EQ(appended->first_seq, 0u);
    EXPECT_EQ(appended->version, (*db)->version());

    const auto window = (*db)->SnapshotWindow();
    ASSERT_EQ(window->num_transactions(), 2u);
    EXPECT_EQ(window->transaction(0), (std::vector<ItemId>{1, 3, 5}));
    EXPECT_EQ(window->transaction(1), (std::vector<ItemId>{0, 2}));
    EXPECT_EQ(window->label(0), 1);
    EXPECT_EQ(window->label(1), 0);
    EXPECT_EQ((*trainer)->stats().ingested, 2u);
}

TEST_F(TrainerTest, RejectedBatchLeavesTrainerUntouched) {
    testutil::DriftSource source(SourceConfig(11));
    auto db = StreamingDatabase::Create(StreamFor(source, 400));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    ContinuousTrainerConfig config = TrainerConfig(ModelDir("reject"));
    config.retrain_every = 50;
    config.drift_trigger = false;
    auto trainer = ContinuousTrainer::Create(config, db->get(), &registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(300)).ok());
    auto pumped = (*trainer)->MaybeRetrain();  // bootstrap
    ASSERT_TRUE(pumped.ok()) << pumped.status();
    ASSERT_TRUE(*pumped);
    const std::uint64_t version = (*db)->version();

    // An out-of-universe item rejects the whole batch, after the served
    // model has scored it: no row is stored or counted toward the schedule.
    TransactionBatch bad = source.NextBatch(60);
    bad.transactions.back().push_back(
        static_cast<ItemId>(source.num_items()));
    EXPECT_FALSE((*trainer)->Ingest(std::move(bad)).ok());
    EXPECT_EQ((*trainer)->stats().ingested, 300u);
    EXPECT_EQ((*db)->version(), version);
    EXPECT_EQ((*db)->total_appended(), 300u);
    pumped = (*trainer)->MaybeRetrain();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
    EXPECT_FALSE(*pumped);
    EXPECT_EQ((*trainer)->stats().schedule_triggers, 0u);
    EXPECT_EQ(registry.current_version(), 1u);

    // The next good rows count from where the accepted ones left off.
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(50)).ok());
    pumped = (*trainer)->MaybeRetrain();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
    EXPECT_TRUE(*pumped);
    EXPECT_EQ((*trainer)->stats().schedule_triggers, 1u);
    EXPECT_EQ(registry.current_version(), 2u);
}

TEST_F(TrainerTest, RejectedBatchLeavesDriftSignalUntouched) {
    // The served model scores a batch before the stream validates it. A
    // rejected batch must not reach the drift detector: its out-of-range
    // labels would all count as wrong predictions.
    testutil::DriftSource source(SourceConfig(13));
    auto db = StreamingDatabase::Create(StreamFor(source, 400));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    auto trainer = ContinuousTrainer::Create(TrainerConfig(ModelDir("rejdrift")),
                                             db->get(), &registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(300)).ok());
    auto pumped = (*trainer)->MaybeRetrain();  // bootstrap
    ASSERT_TRUE(pumped.ok()) << pumped.status();
    ASSERT_TRUE(*pumped);

    TransactionBatch bad = source.NextBatch(150);
    for (ClassLabel& label : bad.labels) {
        label = static_cast<ClassLabel>(source.num_classes());
    }
    EXPECT_FALSE((*trainer)->Ingest(std::move(bad)).ok());

    // Enough good rows from the same concept to pass min_observations.
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(20)).ok());
        pumped = (*trainer)->MaybeRetrain();
        ASSERT_TRUE(pumped.ok()) << pumped.status();
    }
    EXPECT_EQ((*trainer)->stats().drift_triggers, 0u);
    EXPECT_EQ(registry.current_version(), 1u);
}

TEST_F(TrainerTest, RetrainSelectsFromSnapshotPatterns) {
    // The served patterns come from Eclat over the window snapshot the
    // retrain took, singletons dropped.
    testutil::DriftSource source(SourceConfig(12));
    auto db = StreamingDatabase::Create(StreamFor(source, 300));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    ContinuousTrainerConfig config = TrainerConfig(ModelDir("snapmine"));
    config.drift_trigger = false;
    auto trainer = ContinuousTrainer::Create(config, db->get(), &registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(500)).ok());
    ASSERT_TRUE((*trainer)->RetrainNow("test").ok());
    EXPECT_EQ((*trainer)->stats().last_stream_version, (*db)->version());

    MinerConfig mc = config.pipeline.miner;
    mc.include_singletons = false;
    const auto mined = EclatMiner().Mine(*(*db)->SnapshotWindow(), mc);
    ASSERT_TRUE(mined.ok()) << mined.status();
    std::set<Itemset> window_patterns;
    for (const Pattern& p : *mined) window_patterns.insert(p.items);

    const serve::ServablePtr served = registry.Snapshot();
    ASSERT_NE(served, nullptr);
    const auto& patterns = served->model.feature_space().patterns();
    ASSERT_FALSE(patterns.empty());
    for (const Pattern& p : patterns) {
        EXPECT_GE(p.items.size(), 2u);
        EXPECT_EQ(window_patterns.count(p.items), 1u)
            << "served pattern not mined from the window";
    }
}

TEST_F(TrainerTest, RetrainMineSecondsIncludeWindowMine) {
    // dfp.core.pipeline.mine_seconds of a stream retrain covers the window
    // mine (its own `window_mine` span) plus the pipeline's pool dedup.
    testutil::DriftSource source(SourceConfig(13));
    auto db = StreamingDatabase::Create(StreamFor(source, 400));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    ContinuousTrainerConfig config = TrainerConfig(ModelDir("minesec"));
    config.drift_trigger = false;
    auto trainer = ContinuousTrainer::Create(config, db->get(), &registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(400)).ok());

    obs::EnableTracing(true);
    obs::Tracer::Get().Clear();
    const Status retrained = (*trainer)->RetrainNow("test");
    obs::EnableTracing(false);
    const auto roots = obs::Tracer::Get().TakeRoots();
    ASSERT_TRUE(retrained.ok()) << retrained;

    double window_mine_seconds = -1.0;
    double pool_seconds = -1.0;
    for (const auto& root : roots) {
        if (root->name == "window_mine") window_mine_seconds = root->seconds;
        if (root->name != "train") continue;
        for (const auto& child : root->children) {
            if (child->name == "pool_dedup") pool_seconds = child->seconds;
        }
    }
    ASSERT_GE(window_mine_seconds, 0.0) << "no window_mine span";
    ASSERT_GE(pool_seconds, 0.0) << "no pool_dedup span";
    const double mine_seconds = obs::Registry::Get()
                                    .GetGauge("dfp.core.pipeline.mine_seconds")
                                    .value();
    EXPECT_GE(mine_seconds, window_mine_seconds);
    EXPECT_GE(mine_seconds, pool_seconds);
}

TEST_F(TrainerTest, RetrainSplitsSaveReloadAndDriftBaseline) {
    // The rest of a retrain after train is timed in three spans, each
    // mirrored by a dfp.stream.retrain.*_seconds gauge.
    testutil::DriftSource source(SourceConfig(14));
    auto db = StreamingDatabase::Create(StreamFor(source, 400));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    ContinuousTrainerConfig config = TrainerConfig(ModelDir("split"));
    config.drift_trigger = false;
    auto trainer = ContinuousTrainer::Create(config, db->get(), &registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(400)).ok());

    auto& metrics = obs::Registry::Get();
    for (const char* name : {"dfp.stream.retrain.save_seconds",
                             "dfp.stream.retrain.reload_seconds",
                             "dfp.stream.retrain.baseline_seconds"}) {
        metrics.GetGauge(name).Set(-1.0);
    }
    obs::EnableTracing(true);
    obs::Tracer::Get().Clear();
    const Status retrained = (*trainer)->RetrainNow("test");
    obs::EnableTracing(false);
    const auto roots = obs::Tracer::Get().TakeRoots();
    ASSERT_TRUE(retrained.ok()) << retrained;

    const std::pair<const char*, const char*> stages[] = {
        {"save", "dfp.stream.retrain.save_seconds"},
        {"reload", "dfp.stream.retrain.reload_seconds"},
        {"drift_baseline", "dfp.stream.retrain.baseline_seconds"},
    };
    for (const auto& [span, gauge] : stages) {
        SCOPED_TRACE(span);
        const auto it = std::find_if(
            roots.begin(), roots.end(),
            [&](const auto& root) { return root->name == span; });
        ASSERT_NE(it, roots.end()) << "no " << span << " span";
        const double seconds = metrics.GetGauge(gauge).value();
        EXPECT_GE(seconds, 0.0);
        EXPECT_LE(seconds, (*it)->seconds);
    }
}

TEST_F(TrainerTest, RetrainMinesWindowWithEclatOnly) {
    // A retrain mines its window once, with Eclat and without singletons;
    // TrainWithCandidates mines nothing more (the closed miner stays idle).
    testutil::DriftSource source(SourceConfig(15));
    auto db = StreamingDatabase::Create(StreamFor(source, 300));
    ASSERT_TRUE(db.ok());
    serve::ModelRegistry registry;
    ContinuousTrainerConfig config = TrainerConfig(ModelDir("eclatonly"));
    config.drift_trigger = false;
    auto trainer = ContinuousTrainer::Create(config, db->get(), &registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(400)).ok());

    MinerConfig mc = config.pipeline.miner;
    mc.include_singletons = false;
    const auto expected = EclatMiner().Mine(*(*db)->SnapshotWindow(), mc);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_FALSE(expected->empty());

    auto& metrics = obs::Registry::Get();
    auto& eclat = metrics.GetCounter("dfp.fpm.eclat.patterns_emitted");
    auto& closed = metrics.GetCounter("dfp.fpm.closed.patterns_emitted");
    const std::uint64_t eclat_mark = eclat.value();
    const std::uint64_t closed_mark = closed.value();
    ASSERT_TRUE((*trainer)->RetrainNow("test").ok());
    EXPECT_EQ(eclat.value() - eclat_mark, expected->size());
    EXPECT_EQ(closed.value(), closed_mark);
}

// The golden trainer's first window (DriftSource seed 5, window 400,
// min_sup 0.12, length ≤ 4, δ = 2), whose window mine gives different nb
// bundles in different emission orders unless the pool is canonicalized.
struct GoldenWindow {
    std::shared_ptr<const TransactionDatabase> window;
    PipelineConfig pipeline_config;
    MinerConfig mine_config;  // the retrain's window mine
};

GoldenWindow MakeGoldenWindow() {
    testutil::DriftSourceConfig source_config;
    source_config.num_phases = 2;
    source_config.rows_per_phase = 600;
    source_config.eval_rows = 200;
    source_config.seed = 5;
    testutil::DriftSource source(source_config);
    auto db = StreamingDatabase::Create(StreamFor(source, 400));
    EXPECT_TRUE(db.ok());
    EXPECT_TRUE((*db)->Append(source.NextBatch(600)).ok());

    GoldenWindow golden;
    golden.window = (*db)->SnapshotWindow();
    golden.pipeline_config.miner.min_sup_rel = 0.12;
    golden.pipeline_config.miner.max_pattern_len = 4;
    golden.pipeline_config.mmrfs.coverage_delta = 2;
    golden.mine_config = golden.pipeline_config.miner;
    golden.mine_config.include_singletons = false;
    return golden;
}

/// The serialized model TrainWithCandidates trains from `candidates`.
std::string BundleOf(const GoldenWindow& golden, const std::string& learner_id,
                     std::vector<Pattern> candidates) {
    PatternClassifierPipeline pipeline(golden.pipeline_config);
    auto learner = MakeLearnerByTypeId(learner_id);
    EXPECT_TRUE(learner.ok()) << learner.status();
    if (!learner.ok()) return {};
    const Status trained = pipeline.TrainWithCandidates(
        *golden.window, std::move(candidates), std::move(*learner));
    EXPECT_TRUE(trained.ok()) << trained;
    std::ostringstream out;
    EXPECT_TRUE(SavePipelineModel(pipeline, out).ok());
    return out.str();
}

TEST(DriftDetectorTest, CheckPublishesRecentAccuracyAndClassShift) {
    auto& accuracy =
        obs::Registry::Get().GetGauge("dfp.stream.recent_accuracy");
    auto& shift = obs::Registry::Get().GetGauge("dfp.stream.class_shift");
    DriftDetector detector(DriftDetectorConfig{}, 2);

    // Nothing observed: accuracy reads -1 and there is no shift.
    DriftVerdict verdict = detector.Check();
    EXPECT_EQ(verdict.recent_accuracy, -1.0);
    EXPECT_EQ(accuracy.value(), -1.0);
    EXPECT_EQ(shift.value(), 0.0);

    detector.SetBaseline(0.9, {1.0, 1.0});
    for (int i = 0; i < 4; ++i) {
        detector.ObservePrediction(i != 0);  // 3 of 4 right
        detector.ObserveLabel(0);            // all class 0 vs a 50/50 baseline
    }
    verdict = detector.Check();
    EXPECT_DOUBLE_EQ(verdict.recent_accuracy, 0.75);
    EXPECT_DOUBLE_EQ(verdict.class_shift, 0.5);
    EXPECT_DOUBLE_EQ(accuracy.value(), 0.75);
    EXPECT_DOUBLE_EQ(shift.value(), 0.5);
}

TEST(DriftDetectorTest, TriggersOnlyAfterMinObservations) {
    DriftDetectorConfig config;
    config.window = 16;
    config.min_observations = 8;
    config.accuracy_drop = 0.15;
    config.class_shift = -1.0;  // accuracy signal only
    DriftDetector detector(config, 2);
    detector.SetBaseline(0.9, {1.0, 1.0});

    // Every prediction wrong, yet below min_observations nothing fires.
    for (int i = 0; i < 7; ++i) {
        detector.ObservePrediction(false);
        detector.ObserveLabel(static_cast<ClassLabel>(i % 2));
        EXPECT_FALSE(detector.Check().drifted) << "after " << i + 1;
    }
    detector.ObservePrediction(false);
    detector.ObserveLabel(1);
    const DriftVerdict verdict = detector.Check();
    EXPECT_TRUE(verdict.drifted);
    EXPECT_EQ(verdict.reason, "accuracy_drop");

    // Re-arming clears the rolling window.
    detector.ResetRecent();
    EXPECT_FALSE(detector.Check().drifted);
}

TEST(TrainWithCandidatesOrderTest, BundleDependsOnlyOnCandidateSet) {
    const GoldenWindow golden = MakeGoldenWindow();
    const auto eclat = EclatMiner().Mine(*golden.window, golden.mine_config);
    const auto apriori =
        testutil::AprioriMiner().Mine(*golden.window, golden.mine_config);
    ASSERT_TRUE(eclat.ok()) << eclat.status();
    ASSERT_TRUE(apriori.ok()) << apriori.status();
    std::vector<Pattern> reversed(eclat->rbegin(), eclat->rend());

    auto items_of = [](const std::vector<Pattern>& patterns) {
        std::vector<Itemset> items;
        for (const Pattern& p : patterns) items.push_back(p.items);
        return items;
    };
    // Same set, different sequences: otherwise the test proves nothing.
    ASSERT_GT(eclat->size(), 2u);
    auto eclat_items = items_of(*eclat);
    auto apriori_items = items_of(*apriori);
    ASSERT_NE(eclat_items, apriori_items);
    std::sort(eclat_items.begin(), eclat_items.end());
    std::sort(apriori_items.begin(), apriori_items.end());
    ASSERT_EQ(eclat_items, apriori_items);

    // Compared with EXPECT_TRUE so a failure reports sizes, not two bundles.
    const std::string in_eclat_order = BundleOf(golden, "nb", *eclat);
    ASSERT_FALSE(in_eclat_order.empty());
    const std::string in_reverse = BundleOf(golden, "nb", reversed);
    const std::string in_apriori_order = BundleOf(golden, "nb", *apriori);
    EXPECT_TRUE(in_reverse == in_eclat_order)
        << "reversed order: " << in_reverse.size() << " vs "
        << in_eclat_order.size() << " bytes";
    EXPECT_TRUE(in_apriori_order == in_eclat_order)
        << "apriori order: " << in_apriori_order.size() << " vs "
        << in_eclat_order.size() << " bytes";
}

// The same contract for every serializable learner: the window's
// candidates reversed, then each again in a seeded shuffle, train the bundle
// the Eclat order trains. (Pooled first-seen instead of canonically, this
// pool trains a different bundle for each of the three learners.)
class TrainWithCandidatesLearnerTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(TrainWithCandidatesLearnerTest, ShuffledDuplicatedPoolGivesSameBundle) {
    const GoldenWindow golden = MakeGoldenWindow();
    const auto eclat = EclatMiner().Mine(*golden.window, golden.mine_config);
    ASSERT_TRUE(eclat.ok()) << eclat.status();
    ASSERT_GT(eclat->size(), 2u);
    std::vector<Pattern> shuffled(eclat->rbegin(), eclat->rend());
    std::vector<Pattern> again = *eclat;
    Rng rng(17);
    std::shuffle(again.begin(), again.end(), rng);
    shuffled.insert(shuffled.end(), again.begin(), again.end());

    const std::string in_eclat_order = BundleOf(golden, GetParam(), *eclat);
    ASSERT_FALSE(in_eclat_order.empty());
    const std::string in_shuffle = BundleOf(golden, GetParam(), shuffled);
    EXPECT_TRUE(in_shuffle == in_eclat_order)
        << "shuffled order: " << in_shuffle.size() << " vs "
        << in_eclat_order.size() << " bytes";
}

INSTANTIATE_TEST_SUITE_P(Learners, TrainWithCandidatesLearnerTest,
                         ::testing::Values("nb", "svm", "c4.5"),
                         [](const auto& info) {
                             std::string name = info.param;
                             name.erase(std::remove(name.begin(), name.end(), '.'),
                                        name.end());
                             return name;
                         });

}  // namespace
}  // namespace dfp::stream
