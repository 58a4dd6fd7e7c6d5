// The concept-drift certification scenario (ISSUE/DESIGN.md §16): a live
// loopback prediction server answers traffic from client threads while the
// main thread streams a seeded piecewise-stationary source through the
// ContinuousTrainer. Certified invariants:
//
//  * served accuracy recovers within tolerance after each of the 3 drifts
//    (4 phases), measured on each phase's held-out set;
//  * no prediction is dropped and none is mis-versioned during any hot swap —
//    every request succeeds and every connection observes monotonically
//    non-decreasing model versions bounded by the registry's;
//  * a failpoint-injected reload failure mid-stream leaves the previous
//    version serving with the trainer's retry armed; the next pump publishes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "stream/streaming_db.hpp"
#include "stream/trainer.hpp"
#include "testutil/drift_source.hpp"
#include "testutil/scratch_path.hpp"

namespace dfp::stream {
namespace {

using serve::EngineConfig;
using serve::ModelRegistry;
using serve::PredictionServer;
using serve::ScoringEngine;
using serve::ServeClient;
using serve::ServerConfig;

struct Harness {
    explicit Harness(EngineConfig engine_config = {})
        : engine(registry, engine_config),
          server(registry, engine, FixPort(ServerConfig{}), "") {
        const Status st = server.Start();
        EXPECT_TRUE(st.ok()) << st;
    }
    ~Harness() {
        server.Stop();
        engine.Stop();
    }

    static ServerConfig FixPort(ServerConfig config) {
        config.port = 0;
        return config;
    }

    ModelRegistry registry;
    ScoringEngine engine;
    PredictionServer server;
};

/// Per-connection traffic log. Counters only — a client may push tens of
/// thousands of requests through the scenario. `requests` is read live by the
/// streaming thread; the rest only after the client thread is joined.
struct ClientLog {
    std::atomic<std::uint64_t> requests{0};
    std::uint64_t failures = 0;
    std::uint64_t version_regressions = 0;
    std::uint64_t max_version = 0;
    std::set<std::uint64_t> versions_seen;
};

/// Closed-loop predict traffic until `stop`; one connection per thread.
void ClientLoop(std::uint16_t port,
                const std::vector<std::vector<ItemId>>& queries,
                const std::atomic<bool>& stop, ClientLog* log) {
    auto client = ServeClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status();
    std::uint64_t last_version = 0;
    for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const auto prediction = client->Predict(queries[i % queries.size()]);
        if (!prediction.ok()) {
            ++log->failures;
            log->requests.fetch_add(1);
            continue;
        }
        if (prediction->model_version < last_version) {
            ++log->version_regressions;
        }
        last_version = prediction->model_version;
        log->max_version = std::max(log->max_version, last_version);
        log->versions_seen.insert(last_version);
        log->requests.fetch_add(1);
    }
}

/// Blocks until every client has completed `n` more requests than its
/// `*baseline` entry, then advances the baselines. The streaming thread calls
/// it at the end of each phase, so live traffic overlaps every phase's model
/// however the scheduler treats the client threads: on a loaded host they
/// can otherwise starve until the stream is over. The deadline only turns a
/// hung client into a failure instead of a hang.
bool WaitForTraffic(const std::vector<ClientLog>& logs, std::uint64_t n,
                    std::vector<std::uint64_t>* baseline) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (std::size_t c = 0; c < logs.size(); ++c) {
        while (logs[c].requests.load() < (*baseline)[c] + n) {
            if (std::chrono::steady_clock::now() > deadline) return false;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }
    for (std::size_t c = 0; c < logs.size(); ++c) {
        (*baseline)[c] = logs[c].requests.load();
    }
    return true;
}

double ServedAccuracy(const ModelRegistry& registry,
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

class DriftScenarioTest : public ::testing::Test {
  protected:
    void SetUp() override { FailpointRegistry::Get().DisableAll(); }
    void TearDown() override { FailpointRegistry::Get().DisableAll(); }
};

TEST_F(DriftScenarioTest, LiveServerRecoversAcrossThreeDrifts) {
    constexpr std::size_t kBatch = 50;
    constexpr std::size_t kClients = 2;
    // Requests each client completes on every phase's final model.
    constexpr std::uint64_t kRequestsPerPhase = 40;

    testutil::DriftSourceConfig source_config;
    source_config.num_phases = 4;  // 3 drifts
    source_config.rows_per_phase = 800;
    source_config.eval_rows = 250;
    source_config.attributes = 8;
    source_config.arity = 3;
    source_config.seed = 11;
    testutil::DriftSource source(source_config);

    StreamConfig stream_config;
    stream_config.num_items = source.num_items();
    stream_config.num_classes = source.num_classes();
    stream_config.window_capacity = 500;
    auto db = StreamingDatabase::Create(stream_config);
    ASSERT_TRUE(db.ok());

    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config);

    ContinuousTrainerConfig trainer_config;
    trainer_config.pipeline.miner.min_sup_rel = 0.12;
    trainer_config.pipeline.miner.max_pattern_len = 4;
    trainer_config.pipeline.mmrfs.coverage_delta = 2;
    trainer_config.learner_type = "nb";
    trainer_config.min_window = 250;
    trainer_config.drift.window = 160;
    trainer_config.drift.min_observations = 80;
    trainer_config.drift.accuracy_drop = 0.12;
    trainer_config.drift.class_shift = 0.35;
    const testutil::ScratchPath model_dir("dfp_scenario");
    trainer_config.model_dir = model_dir.str();
    auto trainer = ContinuousTrainer::Create(trainer_config, db->get(),
                                             &harness.registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();

    // Query pool for the client threads: phase-0 held-out transactions. The
    // scenario asserts liveness and version discipline per request; accuracy
    // is measured separately against each phase's eval set.
    std::vector<std::vector<ItemId>> queries;
    const TransactionDatabase& pool = source.EvalSet(0);
    for (std::size_t t = 0; t < pool.num_transactions(); ++t) {
        queries.push_back(pool.transaction(t));
    }

    // Phase 0: stream until the bootstrap retrain publishes, then open
    // client traffic against the live server for the rest of the run.
    std::atomic<bool> stop{false};
    std::vector<ClientLog> logs(kClients);
    std::vector<std::uint64_t> traffic_baseline(kClients, 0);
    std::vector<std::thread> clients;
    std::vector<double> phase_accuracy;
    bool traffic_started = false;

    for (std::size_t phase = 0; phase < source_config.num_phases; ++phase) {
        while (!source.exhausted() &&
               source.PhaseOf(source.position()) == phase) {
            ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(kBatch)).ok());
            const auto pumped = (*trainer)->MaybeRetrain();
            ASSERT_TRUE(pumped.ok()) << pumped.status();
            if (!traffic_started && harness.registry.current_version() > 0) {
                traffic_started = true;
                for (std::size_t c = 0; c < kClients; ++c) {
                    clients.emplace_back(ClientLoop, harness.server.port(),
                                         std::cref(queries), std::cref(stop),
                                         &logs[c]);
                }
            }
        }
        ASSERT_TRUE(traffic_started) << "phase 0 never bootstrapped a model";
        ASSERT_TRUE(WaitForTraffic(logs, kRequestsPerPhase, &traffic_baseline))
            << "client traffic stalled in phase " << phase;
        phase_accuracy.push_back(
            ServedAccuracy(harness.registry, source.EvalSet(phase)));
        std::printf("[scenario] phase %zu: served accuracy %.3f, model v%llu, "
                    "%llu drift triggers so far\n",
                    phase, phase_accuracy.back(),
                    static_cast<unsigned long long>(
                        harness.registry.current_version()),
                    static_cast<unsigned long long>(
                        (*trainer)->stats().drift_triggers));

        if (phase != 1) continue;
        // Mid-stream failure drill: the next reload is failpoint-killed after
        // a full train cycle. The previous version must keep serving (clients
        // are live right now) and the retry must publish on the next pump.
        const std::uint64_t version_before = harness.registry.current_version();
        ASSERT_TRUE(FailpointRegistry::Get()
                        .Configure("serve.registry.validate=nth(1)", 1)
                        .ok());
        EXPECT_FALSE((*trainer)->RetrainNow("drill").ok());
        EXPECT_EQ(harness.registry.current_version(), version_before)
            << "failed reload must not evict the serving model";
        EXPECT_TRUE((*trainer)->stats().retry_pending);
        const auto retried = (*trainer)->MaybeRetrain();
        ASSERT_TRUE(retried.ok()) << retried.status();
        EXPECT_TRUE(*retried);
        EXPECT_EQ(harness.registry.current_version(), version_before + 1);
        EXPECT_FALSE((*trainer)->stats().retry_pending);
    }

    stop.store(true);
    for (auto& thread : clients) thread.join();

    // (a) Accuracy recovered after every drift: each phase's end-of-phase
    // served accuracy is solid on that phase's held-out set and within
    // tolerance of the pre-drift level.
    ASSERT_EQ(phase_accuracy.size(), source_config.num_phases);
    EXPECT_GE(phase_accuracy[0], 0.70);
    for (std::size_t phase = 1; phase < phase_accuracy.size(); ++phase) {
        EXPECT_GE(phase_accuracy[phase], 0.65)
            << "accuracy did not recover in phase " << phase;
        EXPECT_GE(phase_accuracy[phase], phase_accuracy[0] - 0.12)
            << "phase " << phase << " recovery outside tolerance";
    }
    const TrainerStats stats = (*trainer)->stats();
    EXPECT_GE(stats.drift_triggers, 3u)
        << "each of the 3 drifts should fire the detector at least once";

    // (b) No prediction dropped or mis-versioned during any swap.
    const std::uint64_t final_version = harness.registry.current_version();
    std::set<std::uint64_t> all_versions;
    for (std::size_t c = 0; c < kClients; ++c) {
        EXPECT_GT(logs[c].requests.load(), 100u)
            << "client " << c << " barely ran";
        EXPECT_EQ(logs[c].failures, 0u)
            << "client " << c << " had predictions dropped";
        EXPECT_EQ(logs[c].version_regressions, 0u)
            << "client " << c << " observed a version go backwards";
        EXPECT_LE(logs[c].max_version, final_version);
        all_versions.insert(logs[c].versions_seen.begin(),
                            logs[c].versions_seen.end());
    }
    // Traffic genuinely spanned hot swaps: more than one version answered.
    EXPECT_GE(all_versions.size(), 2u);
    EXPECT_EQ(stats.retrain_failures, 1u);  // exactly the injected drill
}

}  // namespace
}  // namespace dfp::stream
