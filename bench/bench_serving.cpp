// Serving-path benchmark (BENCH_serving.json):
//
//  1. Inverted-index micro-bench — PatternMatchIndex::CountMatches vs a
//     naive per-pattern std::includes scan (the encoder FeatureSpace ran
//     before it compiled the index), on the trained feature space, timed in
//     9 alternating scan/index rounds. The median round's speedup must be
//     ≥ 3×.
//  2. Closed-loop TCP load — dfp_serve's stack (registry → engine → server)
//     on a loopback ephemeral port, hammered by 1 / 4 / 16 concurrent
//     connections issuing predict_batch requests of 64 transactions, in 5
//     alternating rounds over the three levels. Per-request latency
//     quantiles (p50/p95/p99) and end-to-end prediction throughput are taken
//     per run; the median of each over the 5 runs of a level lands in the
//     report as
//       dfp.bench.serving.c<k>.{p50_ms,p95_ms,p99_ms,preds_per_s}
//     plus dfp.bench.serving.index_speedup for the micro-bench and
//     dfp.bench.serving.score_us, the per-row time of EncodeInto plus the
//     learner's Predict on the same corpus (median of 9 passes).
//  3. Soak — sustained mixed traffic for --soak-seconds (default 4): 8
//     connections of single-predict requests (the traced, micro-batched
//     path) while a control thread hot-reloads the model twice a second.
//     Soak clients run the production retry policy; shed rate, client retry
//     rate, failpoint trips (gated to zero — injection must never leak into
//     the measured path), the engine's trailing-window p99.9, and throughput
//     land as dfp.bench.serving.soak.{shed_rate,retry_rate,failpoint_trips,
//     p999_ms,preds_per_s,reloads} (tools/bench_diff compares them against
//     bench/baselines/serving.json).
//
// Corpus: the 4000×30 dense synthetic corpus the parallel-mining bench uses,
// so serving numbers sit next to mining numbers measured on the same data.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "exp/table_printer.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "serve/scoring_index.hpp"
#include "serve/server.hpp"

using namespace dfp;

namespace {

TransactionDatabase DenseCorpus(std::size_t rows, std::size_t items,
                                double density, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<ItemId>> txns(rows);
    std::vector<ClassLabel> labels(rows);
    for (std::size_t t = 0; t < rows; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(density)) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % items));
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items, 2);
}

/// Naive matcher: the per-pattern std::includes scan — the baseline the
/// index must beat.
std::size_t NaiveCountMatches(const FeatureSpace& space,
                              const std::vector<ItemId>& txn) {
    std::size_t matches = 0;
    for (const Pattern& p : space.patterns()) {
        if (std::includes(txn.begin(), txn.end(), p.items.begin(),
                          p.items.end())) {
            ++matches;
        }
    }
    return matches;
}

double Quantile(std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

struct LoadResult {
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    double preds_per_s = 0;
    std::size_t predictions = 0;
};

/// Closed loop: each connection issues `requests_per_conn` predict_batch
/// calls of `batch_size` transactions back to back; latency is client-side
/// per request.
LoadResult RunLoadPhase(std::uint16_t port, const TransactionDatabase& db,
                        std::size_t connections, std::size_t requests_per_conn,
                        std::size_t batch_size) {
    std::vector<std::vector<double>> latencies(connections);
    std::atomic<std::size_t> failures{0};
    Stopwatch wall;
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < connections; ++c) {
        workers.emplace_back([&, c] {
            auto client = serve::ServeClient::Connect("127.0.0.1", port);
            if (!client.ok()) {
                failures.fetch_add(requests_per_conn);
                return;
            }
            latencies[c].reserve(requests_per_conn);
            for (std::size_t r = 0; r < requests_per_conn; ++r) {
                std::vector<std::vector<ItemId>> batch;
                batch.reserve(batch_size);
                for (std::size_t b = 0; b < batch_size; ++b) {
                    const std::size_t t =
                        (c * 131 + r * batch_size + b) % db.num_transactions();
                    batch.push_back(db.transaction(t));
                }
                Stopwatch request;
                auto predictions = client->PredictBatch(batch);
                if (!predictions.ok() || predictions->size() != batch_size) {
                    failures.fetch_add(1);
                    continue;
                }
                latencies[c].push_back(request.ElapsedMillis());
            }
        });
    }
    for (auto& worker : workers) worker.join();
    const double seconds = wall.ElapsedSeconds();

    std::vector<double> all;
    for (const auto& per_conn : latencies) {
        all.insert(all.end(), per_conn.begin(), per_conn.end());
    }
    std::sort(all.begin(), all.end());
    LoadResult result;
    result.predictions = all.size() * batch_size;
    result.p50_ms = Quantile(all, 0.50);
    result.p95_ms = Quantile(all, 0.95);
    result.p99_ms = Quantile(all, 0.99);
    result.preds_per_s =
        seconds > 0.0 ? static_cast<double>(result.predictions) / seconds : 0.0;
    if (failures.load() > 0) {
        std::fprintf(stderr, "[bench] %zu failed requests in c%zu phase\n",
                     failures.load(), connections);
    }
    return result;
}

/// Field-wise median of repeated runs of one load level (an odd count, so
/// each median is one run's value); `predictions` is per run.
LoadResult MedianOfRuns(const std::vector<LoadResult>& runs) {
    auto median = [&runs](double LoadResult::*field) {
        std::vector<double> values;
        for (const LoadResult& run : runs) values.push_back(run.*field);
        std::sort(values.begin(), values.end());
        return values[values.size() / 2];
    };
    LoadResult result;
    result.p50_ms = median(&LoadResult::p50_ms);
    result.p95_ms = median(&LoadResult::p95_ms);
    result.p99_ms = median(&LoadResult::p99_ms);
    result.preds_per_s = median(&LoadResult::preds_per_s);
    result.predictions = runs.front().predictions;
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    const auto threads = static_cast<std::size_t>(
        bench::FlagValue(argc, argv, "threads", 1));
    const auto requests_per_conn = static_cast<std::size_t>(
        bench::FlagValue(argc, argv, "requests", 40));
    const long soak_seconds = bench::FlagValue(argc, argv, "soak-seconds", 4);
    bench::BeginBenchObservability(threads);
    auto& registry = obs::Registry::Get();

    bench::Section("Serving benchmark: 4000x30 dense corpus");
    const auto db = DenseCorpus(4000, 30, 0.40, 11);

    // Train the model once; everything downstream scores with it.
    PipelineConfig config;
    config.miner.min_sup_rel = 0.05;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 4;
    PatternClassifierPipeline pipeline(config);
    {
        Stopwatch train;
        const Status st =
            pipeline.Train(db, std::make_unique<NaiveBayesClassifier>());
        if (!st.ok()) {
            std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
            return 1;
        }
        std::printf("trained: %zu candidates -> %zu patterns in %.2fs\n",
                    pipeline.stats().num_candidates,
                    pipeline.stats().num_selected, train.ElapsedSeconds());
    }
    const std::string model_path =
        "/tmp/dfp_bench_serving_" + std::to_string(::getpid()) + ".dfp";
    if (!SavePipelineModelToFile(pipeline, model_path).ok()) {
        std::fprintf(stderr, "model save failed\n");
        return 1;
    }

    // --- Phase 1: inverted index vs naive matching -------------------------
    bench::Section("Inverted-index matching vs naive std::includes");
    const FeatureSpace& space = pipeline.feature_space();
    const serve::PatternMatchIndex& index = space.matcher();
    serve::PatternMatchIndex::Scratch scratch;
    // Alternating rounds: each times kPassesPerRound naive passes over the
    // corpus, then as many indexed passes. The reported speedup is the
    // median of the rounds' ratios, so one preempted pass cannot move it.
    constexpr std::size_t kRounds = 9;  // odd: the median is one round's
    constexpr std::size_t kPassesPerRound = 4;
    auto median = [](std::vector<double> v) {
        std::nth_element(v.begin(), v.begin() + kRounds / 2, v.end());
        return v[kRounds / 2];
    };
    std::size_t naive_matches = 0;
    std::size_t indexed_matches = 0;
    std::vector<double> naive_rounds;
    std::vector<double> indexed_rounds;
    std::vector<double> speedups;
    for (std::size_t round = 0; round < kRounds; ++round) {
        Stopwatch naive_watch;
        for (std::size_t pass = 0; pass < kPassesPerRound; ++pass) {
            for (std::size_t t = 0; t < db.num_transactions(); ++t) {
                naive_matches += NaiveCountMatches(space, db.transaction(t));
            }
        }
        naive_rounds.push_back(naive_watch.ElapsedSeconds());
        Stopwatch indexed_watch;
        for (std::size_t pass = 0; pass < kPassesPerRound; ++pass) {
            for (std::size_t t = 0; t < db.num_transactions(); ++t) {
                indexed_matches += index.CountMatches(db.transaction(t), &scratch);
            }
        }
        indexed_rounds.push_back(indexed_watch.ElapsedSeconds());
        speedups.push_back(indexed_rounds.back() > 0.0
                               ? naive_rounds.back() / indexed_rounds.back()
                               : 0.0);
    }

    if (naive_matches != indexed_matches) {
        std::fprintf(stderr, "MATCH MISMATCH: naive %zu vs indexed %zu\n",
                     naive_matches, indexed_matches);
        return 1;
    }
    const double naive_seconds = median(naive_rounds);
    const double indexed_seconds = median(indexed_rounds);
    const double speedup = median(speedups);
    const double txns_per_round =
        static_cast<double>(kPassesPerRound * db.num_transactions());
    std::printf("patterns=%zu postings=%zu matches=%zu\n", index.num_patterns(),
                index.num_postings(),
                indexed_matches / (kRounds * kPassesPerRound));
    std::printf("naive   : %.4fs per round, median of %zu (%.0f txn/s)\n",
                naive_seconds, kRounds, txns_per_round / naive_seconds);
    std::printf("indexed : %.4fs per round, median of %zu (%.0f txn/s)\n",
                indexed_seconds, kRounds, txns_per_round / indexed_seconds);
    std::printf("speedup : %.1fx median of %zu alternating rounds (acceptance "
                "floor 3x)\n",
                speedup, kRounds);
    registry.GetGauge("dfp.bench.serving.index_speedup").Set(speedup);
    registry.GetGauge("dfp.bench.serving.patterns")
        .Set(static_cast<double>(index.num_patterns()));

    // Per-row score time, the engine's work for one request: EncodeInto plus
    // the learner's Predict, median of kRounds passes over the corpus.
    const Classifier& learner = *pipeline.learner();
    std::vector<double> score_rounds;
    std::size_t predicted_ones = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
        Stopwatch score_watch;
        for (std::size_t t = 0; t < db.num_transactions(); ++t) {
            index.EncodeInto(db.transaction(t), &scratch);
            predicted_ones += learner.Predict(scratch.encoded);
        }
        score_rounds.push_back(score_watch.ElapsedSeconds());
    }
    const double score_us = median(score_rounds) * 1e6 /
                            static_cast<double>(db.num_transactions());
    std::printf("score   : %.3f us per row (encode + predict), median of %zu "
                "passes; %.3f of rows predicted class 1\n",
                score_us, kRounds,
                static_cast<double>(predicted_ones) /
                    static_cast<double>(kRounds * db.num_transactions()));
    registry.GetGauge("dfp.bench.serving.score_us").Set(score_us);

    // --- Phase 2: closed-loop TCP load at 1 / 4 / 16 connections -----------
    bench::Section("TCP load (predict_batch of 64 per request)");
    serve::ModelRegistry model_registry;
    auto loaded = model_registry.Reload(model_path);
    if (!loaded.ok()) {
        std::fprintf(stderr, "reload failed: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
    }
    serve::EngineConfig engine_config;
    engine_config.num_threads = threads;
    engine_config.max_delay_ms = 0.2;
    serve::ScoringEngine engine(model_registry, engine_config);
    serve::ServerConfig server_config;
    server_config.port = 0;  // ephemeral: benches never collide
    server_config.max_connections = 64;
    serve::PredictionServer server(model_registry, engine, server_config,
                                   model_path);
    const Status started = server.Start();
    if (!started.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     started.ToString().c_str());
        return 1;
    }

    // One timed run per level swung c4 throughput 4x between runs of the
    // same binary; the levels alternate so drift on the host spreads over
    // all of them, and each statistic is the median of its level's runs.
    constexpr std::size_t kLoadRounds = 5;
    const std::vector<std::size_t> levels = {1, 4, 16};
    std::vector<std::vector<LoadResult>> runs(levels.size());
    for (std::size_t round = 0; round < kLoadRounds; ++round) {
        for (std::size_t l = 0; l < levels.size(); ++l) {
            runs[l].push_back(RunLoadPhase(server.port(), db, levels[l],
                                           requests_per_conn, 64));
        }
    }
    TablePrinter table({"connections", "requests", "predictions", "p50 ms",
                        "p95 ms", "p99 ms", "preds/s"});
    for (std::size_t l = 0; l < levels.size(); ++l) {
        const std::size_t connections = levels[l];
        const LoadResult result = MedianOfRuns(runs[l]);
        table.AddRow({std::to_string(connections),
                      std::to_string(connections * requests_per_conn),
                      std::to_string(result.predictions),
                      StrFormat("%.2f", result.p50_ms),
                      StrFormat("%.2f", result.p95_ms),
                      StrFormat("%.2f", result.p99_ms),
                      StrFormat("%.0f", result.preds_per_s)});
        const std::string prefix =
            "dfp.bench.serving.c" + std::to_string(connections);
        registry.GetGauge(prefix + ".p50_ms").Set(result.p50_ms);
        registry.GetGauge(prefix + ".p95_ms").Set(result.p95_ms);
        registry.GetGauge(prefix + ".p99_ms").Set(result.p99_ms);
        registry.GetGauge(prefix + ".preds_per_s").Set(result.preds_per_s);
    }
    table.Print();

    // --- Phase 3: soak — sustained predicts under concurrent reloads -------
    bench::Section(StrFormat("Soak: %lds of mixed predict + reload traffic",
                             soak_seconds));
    {
        const auto base = registry.Snapshot();
        const std::uint64_t base_requests = [&] {
            const auto it = base.counters.find("dfp.serve.requests");
            return it == base.counters.end() ? std::uint64_t{0} : it->second;
        }();
        const std::uint64_t base_shed = [&] {
            const auto it = base.counters.find("dfp.serve.shed");
            return it == base.counters.end() ? std::uint64_t{0} : it->second;
        }();
        const std::uint64_t base_retries = [&] {
            const auto it = base.counters.find("dfp.serve.client.retries");
            return it == base.counters.end() ? std::uint64_t{0} : it->second;
        }();

        std::atomic<bool> soak_stop{false};
        std::atomic<std::size_t> soak_ok{0};
        std::atomic<std::size_t> reloads{0};
        constexpr std::size_t kSoakConnections = 8;
        std::vector<std::thread> soakers;
        // Soak clients run the production retry policy (DESIGN.md §15):
        // transient transport hiccups around the twice-a-second reloads are
        // absorbed, and the retry rate itself is a gated health metric — a
        // serving regression that manifests as retry churn fails the gate
        // even if every request eventually succeeds.
        serve::RetryPolicy soak_retry;
        soak_retry.max_attempts = 4;
        soak_retry.initial_backoff_ms = 1.0;
        soak_retry.max_backoff_ms = 20.0;
        soak_retry.deadline_ms = 1000.0;
        for (std::size_t c = 0; c < kSoakConnections; ++c) {
            soakers.emplace_back([&, c] {
                auto client = serve::ServeClient::Connect(
                    "127.0.0.1", server.port(), soak_retry);
                if (!client.ok()) return;
                std::size_t r = 0;
                while (!soak_stop.load(std::memory_order_relaxed)) {
                    const std::size_t t =
                        (c * 977 + r * 13) % db.num_transactions();
                    if (client->Predict(db.transaction(t)).ok()) {
                        soak_ok.fetch_add(1, std::memory_order_relaxed);
                    }
                    ++r;
                }
            });
        }
        std::thread reloader([&] {
            auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
            if (!client.ok()) return;
            while (!soak_stop.load(std::memory_order_relaxed)) {
                if (client->Reload().ok()) {
                    reloads.fetch_add(1, std::memory_order_relaxed);
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(500));
            }
        });
        Stopwatch soak_wall;
        std::this_thread::sleep_for(std::chrono::seconds(soak_seconds));
        soak_stop.store(true);
        for (auto& worker : soakers) worker.join();
        reloader.join();
        const double seconds = soak_wall.ElapsedSeconds();

        const auto after = registry.Snapshot();
        const auto requests = [&](const std::string& name) {
            const auto it = after.counters.find(name);
            return it == after.counters.end() ? std::uint64_t{0} : it->second;
        };
        const std::uint64_t submitted = requests("dfp.serve.requests") - base_requests;
        const std::uint64_t shed = requests("dfp.serve.shed") - base_shed;
        const double shed_rate =
            submitted > 0 ? static_cast<double>(shed) /
                                static_cast<double>(submitted)
                          : 0.0;
        // The trailing-window quantile the live /metrics endpoint would
        // report right now — the whole point of the soak phase.
        double p999 = 0.0;
        if (const auto it = after.windows.find("dfp.serve.latency.total");
            it != after.windows.end()) {
            p999 = it->second.ValueAtQuantile(0.999);
        }
        const double preds_per_s =
            seconds > 0.0 ? static_cast<double>(soak_ok.load()) / seconds : 0.0;
        const std::uint64_t retries =
            requests("dfp.serve.client.retries") - base_retries;
        const double retry_rate =
            soak_ok.load() > 0 ? static_cast<double>(retries) /
                                     static_cast<double>(soak_ok.load())
                               : 0.0;
        std::printf("soak: %zu ok, %llu shed (rate %.4f), %zu reloads\n",
                    soak_ok.load(), static_cast<unsigned long long>(shed),
                    shed_rate, reloads.load());
        std::printf("soak: %llu client retries (rate %.4f)\n",
                    static_cast<unsigned long long>(retries), retry_rate);
        std::printf("soak: windowed p99.9 = %.3f ms, %.0f preds/s\n", p999,
                    preds_per_s);
        registry.GetGauge("dfp.bench.serving.soak.shed_rate").Set(shed_rate);
        registry.GetGauge("dfp.bench.serving.soak.retry_rate").Set(retry_rate);
        registry.GetGauge("dfp.bench.serving.soak.p999_ms").Set(p999);
        registry.GetGauge("dfp.bench.serving.soak.preds_per_s").Set(preds_per_s);
        registry.GetGauge("dfp.bench.serving.soak.reloads")
            .Set(static_cast<double>(reloads.load()));
        // No failpoint is ever armed in the bench: a nonzero trip count means
        // injection leaked into the measured path (gated to exactly zero).
        registry.GetGauge("dfp.bench.serving.soak.failpoint_trips")
            .Set(static_cast<double>(FailpointRegistry::Get().TotalTrips()));
    }

    server.Stop();
    engine.Stop();
    std::remove(model_path.c_str());

    bench::WriteBenchReport("serving");
    return 0;
}
