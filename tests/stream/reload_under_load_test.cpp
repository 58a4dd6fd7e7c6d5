// Reload-under-load regression: continuous predict traffic across 100 hot
// reloads. Every connection must observe monotonically non-decreasing model
// versions and zero requests may fail — a shed or error during a swap is a
// registry/engine regression, not load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
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

/// Trains a pipeline model on `rows` and persists it at `path`.
void TrainModelFile(std::vector<std::vector<ItemId>> rows,
                    std::vector<ClassLabel> labels, std::size_t num_items,
                    std::size_t num_classes, const std::string& path) {
    for (auto& txn : rows) {
        std::sort(txn.begin(), txn.end());
        txn.erase(std::unique(txn.begin(), txn.end()), txn.end());
    }
    const TransactionDatabase db = TransactionDatabase::FromTransactions(
        std::move(rows), std::move(labels), num_items, num_classes);
    PipelineConfig config;
    config.miner.min_sup_rel = 0.10;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    PatternClassifierPipeline pipeline(config);
    EXPECT_TRUE(
        pipeline.Train(db, std::make_unique<NaiveBayesClassifier>()).ok());
    EXPECT_TRUE(SavePipelineModelToFile(pipeline, path).ok());
}

struct ClientLog {
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    std::uint64_t version_regressions = 0;
    std::uint64_t max_version = 0;
    std::set<std::uint64_t> versions_seen;
};

void ClientLoop(std::uint16_t port,
                const std::vector<std::vector<ItemId>>& queries,
                const std::atomic<bool>& stop, ClientLog* log) {
    auto client = ServeClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status();
    std::uint64_t last_version = 0;
    for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const auto prediction = client->Predict(queries[i % queries.size()]);
        ++log->requests;
        if (!prediction.ok()) {
            ++log->failures;
            continue;
        }
        if (prediction->model_version < last_version) {
            ++log->version_regressions;
        }
        last_version = prediction->model_version;
        log->max_version = std::max(log->max_version, last_version);
        log->versions_seen.insert(last_version);
    }
}

TEST(ReloadUnderLoadTest, HundredHotReloadsUnderContinuousTraffic) {
    constexpr std::size_t kReloads = 100;
    constexpr std::size_t kClients = 4;

    // Two models over the SAME item universe (two phases of one drift
    // source), so either can answer any query after a swap.
    testutil::DriftSourceConfig source_config;
    source_config.num_phases = 2;
    source_config.rows_per_phase = 400;
    source_config.eval_rows = 60;
    source_config.attributes = 8;
    source_config.arity = 3;
    source_config.seed = 17;
    testutil::DriftSource source(source_config);

    TransactionBatch phase0 = source.NextBatch(source_config.rows_per_phase);
    TransactionBatch phase1 = source.NextBatch(source_config.rows_per_phase);
    const testutil::ScratchPath file_a("dfp_reload_a", ".dfp");
    const testutil::ScratchPath file_b("dfp_reload_b", ".dfp");
    const std::string& path_a = file_a.str();
    const std::string& path_b = file_b.str();
    TrainModelFile(std::move(phase0.transactions), std::move(phase0.labels),
                   source.num_items(), source.num_classes(), path_a);
    TrainModelFile(std::move(phase1.transactions), std::move(phase1.labels),
                   source.num_items(), source.num_classes(), path_b);

    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config);
    ASSERT_TRUE(harness.registry.Reload(path_a).ok());
    ASSERT_EQ(harness.registry.current_version(), 1u);

    std::vector<std::vector<ItemId>> queries;
    for (std::size_t phase = 0; phase < 2; ++phase) {
        const TransactionDatabase& eval = source.EvalSet(phase);
        for (std::size_t t = 0; t < eval.num_transactions(); ++t) {
            queries.push_back(eval.transaction(t));
        }
    }

    std::atomic<bool> stop{false};
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back(ClientLoop, harness.server.port(),
                             std::cref(queries), std::cref(stop), &logs[c]);
    }

    // 100 hot swaps, alternating bundles, under live traffic.
    for (std::size_t i = 0; i < kReloads; ++i) {
        const auto reloaded =
            harness.registry.Reload(i % 2 == 0 ? path_b : path_a);
        ASSERT_TRUE(reloaded.ok()) << "reload " << i << ": "
                                   << reloaded.status();
    }
    EXPECT_EQ(harness.registry.current_version(), kReloads + 1);

    stop.store(true);
    for (auto& thread : clients) thread.join();

    std::uint64_t total_requests = 0;
    std::set<std::uint64_t> all_versions;
    for (std::size_t c = 0; c < kClients; ++c) {
        total_requests += logs[c].requests;
        EXPECT_EQ(logs[c].failures, 0u)
            << "client " << c << " shed/errored during swaps";
        EXPECT_EQ(logs[c].version_regressions, 0u)
            << "client " << c << " observed a version go backwards";
        EXPECT_LE(logs[c].max_version, kReloads + 1);
        all_versions.insert(logs[c].versions_seen.begin(),
                            logs[c].versions_seen.end());
    }
    EXPECT_GT(total_requests, 200u) << "traffic too thin to certify swaps";
    EXPECT_GE(all_versions.size(), 2u) << "no request actually crossed a swap";
}

}  // namespace
}  // namespace dfp::stream
