// Streaming-path benchmark (BENCH_stream.json):
//
//  1. Append throughput — StreamingDatabase::Append over a sliding window,
//     measured in rows/s on a pre-generated drifting stream (generation is
//     excluded). It scores nothing; phase 3 times what ingesting costs.
//       dfp.bench.stream.ingest_rows_per_s
//  2. Window mining — at checkpoints while the stream advances, the window
//     is snapshotted and mined with Eclat, exactly as
//     ContinuousTrainer::RetrainNow does; the mean time per mine lands as
//       dfp.bench.stream.window_mine_ms
//  3. Retrain latency + staleness — a full ContinuousTrainer loop (stream →
//     mine → select → train → save → hot reload through ModelRegistry) on a
//     row-count schedule, run serial then with the pipeline's worker threads
//     opened up (--threads=, default 4); the end-to-end retrain latency, its
//     threaded counterpart and the staleness of the replaced model at swap
//     time land as dfp.bench.stream.{retrain_seconds,
//     retrain_seconds_threaded,retrain_threads_speedup,staleness_seconds,
//     retrains}. The serial loop also times ContinuousTrainer::Ingest — the
//     served model's prequential scoring of every row, then the append
//     (rows before the first model is served are only appended):
//       dfp.bench.stream.trainer_ingest_rows_per_s
//
// The host's hardware thread count lands as dfp.bench.hw_threads (every
// bench report carries it).
// tools/bench_diff gates these against bench/baselines/stream.json.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "exp/table_printer.hpp"
#include "fpm/eclat.hpp"
#include "obs/metrics.hpp"
#include "serve/registry.hpp"
#include "stream/streaming_db.hpp"
#include "stream/trainer.hpp"
#include "testutil/drift_source.hpp"

using namespace dfp;

namespace {

void Canonicalize(stream::TransactionBatch* batch) {
    for (auto& txn : batch->transactions) {
        std::sort(txn.begin(), txn.end());
        txn.erase(std::unique(txn.begin(), txn.end()), txn.end());
    }
}

}  // namespace

int main(int argc, char** argv) {
    const auto stream_rows = static_cast<std::size_t>(
        bench::FlagValue(argc, argv, "rows", 20000));
    const auto window_capacity = static_cast<std::size_t>(
        bench::FlagValue(argc, argv, "window", 2048));
    bench::BeginBenchObservability(1);
    auto& registry = obs::Registry::Get();

    bench::Section(StrFormat("Stream benchmark: %zu rows, window %zu",
                             stream_rows, window_capacity));
    testutil::DriftSourceConfig source_config;
    source_config.num_phases = 4;
    source_config.rows_per_phase = (stream_rows + 3) / 4;
    source_config.eval_rows = 16;
    source_config.attributes = 10;
    source_config.arity = 3;
    source_config.seed = 29;
    testutil::DriftSource source(source_config);
    std::printf("source: %zu phases x %zu rows, %zu items\n",
                source_config.num_phases, source_config.rows_per_phase,
                source.num_items());

    MinerConfig mine_config;
    mine_config.min_sup_rel = 0.10;
    mine_config.max_pattern_len = 4;
    mine_config.include_singletons = false;

    // --- Phase 1+2: ingest throughput and window mining ---------------------
    bench::Section("Ingest + window mining (snapshot + Eclat)");
    stream::StreamConfig stream_config;
    stream_config.num_items = source.num_items();
    stream_config.num_classes = source.num_classes();
    stream_config.window_capacity = window_capacity;
    auto db = stream::StreamingDatabase::Create(stream_config);
    if (!db.ok()) {
        std::fprintf(stderr, "stream create failed: %s\n",
                     db.status().ToString().c_str());
        return 1;
    }

    // Pre-generate canonical batches so the timed loop measures ingestion,
    // not synthesis.
    constexpr std::size_t kBatch = 256;
    std::vector<stream::TransactionBatch> batches;
    while (!source.exhausted()) {
        batches.push_back(source.NextBatch(kBatch));
        Canonicalize(&batches.back());
    }

    double ingest_seconds = 0.0;
    double mine_seconds = 0.0;
    std::size_t checkpoints = 0;
    std::size_t patterns_last = 0;
    std::size_t ingested = 0;
    const std::size_t checkpoint_every =
        std::max<std::size_t>(1, window_capacity / (2 * kBatch));
    for (std::size_t b = 0; b < batches.size(); ++b) {
        stream::TransactionBatch batch = batches[b];
        Stopwatch ingest;
        auto appended = (*db)->Append(std::move(batch));
        ingest_seconds += ingest.ElapsedSeconds();
        if (!appended.ok()) {
            std::fprintf(stderr, "append failed: %s\n",
                         appended.status().ToString().c_str());
            return 1;
        }
        ingested += batches[b].size();

        if ((*db)->window_size() < window_capacity) continue;
        if (b % checkpoint_every != 0) continue;
        ++checkpoints;
        Stopwatch mine_watch;
        const auto window = (*db)->SnapshotWindow();
        auto mined = EclatMiner().Mine(*window, mine_config);
        mine_seconds += mine_watch.ElapsedSeconds();
        if (!mined.ok()) {
            std::fprintf(stderr, "window mine failed: %s\n",
                         mined.status().ToString().c_str());
            return 1;
        }
        patterns_last = mined->size();
    }
    const double ingest_rows_per_s =
        ingest_seconds > 0.0 ? static_cast<double>(ingested) / ingest_seconds
                             : 0.0;
    const double window_mine_ms =
        checkpoints > 0 ? 1e3 * mine_seconds / static_cast<double>(checkpoints)
                        : 0.0;
    std::printf("append  : %zu rows in %.3fs (%.0f rows/s)\n", ingested,
                ingest_seconds, ingest_rows_per_s);
    std::printf("mining  : %zu checkpoints, %.2f ms/mine, %zu patterns at "
                "the last\n",
                checkpoints, window_mine_ms, patterns_last);
    registry.GetGauge("dfp.bench.stream.ingest_rows_per_s")
        .Set(ingest_rows_per_s);
    registry.GetGauge("dfp.bench.stream.window_mine_ms").Set(window_mine_ms);

    // --- Phase 3: end-to-end retrain latency + staleness --------------------
    // Run the full trainer loop twice: serial pipeline, then the pipeline's
    // worker threads opened up (--threads=, default 4) — the retrained models
    // are thread-count-invariant (DESIGN.md §17), so the delta is pure
    // retrain-latency. Both land in the report:
    //   dfp.bench.stream.retrain_seconds          (serial, the gated gauge)
    //   dfp.bench.stream.retrain_seconds_threaded (threads = N)
    //   dfp.bench.stream.retrain_threads_speedup  (serial / threaded)
    bench::Section("Continuous retraining (schedule every window/2 rows)");
    struct RetrainRun {
        std::size_t retrains = 0;
        double avg_seconds = 0.0;
        double staleness = 0.0;
        std::uint64_t version = 0;
        double ingest_rows_per_s = 0.0;
    };
    auto run_retrain_phase = [&](std::size_t threads,
                                 RetrainRun* out) -> bool {
        source.Reset();
        auto db2 = stream::StreamingDatabase::Create(stream_config);
        serve::ModelRegistry model_registry;
        stream::ContinuousTrainerConfig trainer_config;
        trainer_config.pipeline.miner = mine_config;
        trainer_config.pipeline.mmrfs.coverage_delta = 2;
        trainer_config.pipeline.num_threads = threads;
        trainer_config.learner_type = "nb";
        trainer_config.retrain_every = window_capacity / 2;
        trainer_config.drift_trigger = false;
        trainer_config.min_window = window_capacity / 2;
        trainer_config.model_dir = "/tmp/dfp_bench_stream_" +
                                   std::to_string(::getpid()) + "_t" +
                                   std::to_string(threads);
        // The phase's bundles go when the phase ends, on every return path
        // (declared before the trainer, so it is destroyed after it).
        struct RemoveDirAtExit {
            std::string path;
            ~RemoveDirAtExit() {
                std::error_code ec;
                std::filesystem::remove_all(path, ec);
            }
        } bundles{trainer_config.model_dir};
        auto trainer = stream::ContinuousTrainer::Create(
            trainer_config, db2->get(), &model_registry);
        if (!trainer.ok()) {
            std::fprintf(stderr, "trainer create failed: %s\n",
                         trainer.status().ToString().c_str());
            return false;
        }
        double retrain_seconds_total = 0.0;
        double ingest_seconds_total = 0.0;
        while (!source.exhausted()) {
            stream::TransactionBatch batch = source.NextBatch(kBatch);
            Stopwatch ingest_watch;
            const bool ingested_ok = (*trainer)->Ingest(std::move(batch)).ok();
            ingest_seconds_total += ingest_watch.ElapsedSeconds();
            if (!ingested_ok) {
                std::fprintf(stderr, "ingest failed\n");
                return false;
            }
            auto pumped = (*trainer)->MaybeRetrain();
            if (!pumped.ok()) {
                std::fprintf(stderr, "retrain failed: %s\n",
                             pumped.status().ToString().c_str());
                return false;
            }
            if (*pumped) {
                retrain_seconds_total +=
                    (*trainer)->stats().last_retrain_seconds;
            }
        }
        const stream::TrainerStats stats = (*trainer)->stats();
        out->retrains = stats.retrains;
        out->avg_seconds =
            stats.retrains > 0
                ? retrain_seconds_total / static_cast<double>(stats.retrains)
                : 0.0;
        out->version = stats.last_model_version;
        out->ingest_rows_per_s =
            ingest_seconds_total > 0.0
                ? static_cast<double>(stats.ingested) / ingest_seconds_total
                : 0.0;
        // Staleness of the replaced model at the last swap, as exported by
        // the trainer itself (dfp.stream.staleness_seconds).
        const auto snap = registry.Snapshot();
        if (const auto it = snap.gauges.find("dfp.stream.staleness_seconds");
            it != snap.gauges.end()) {
            out->staleness = it->second;
        }
        return true;
    };
    const auto retrain_threads = static_cast<std::size_t>(
        bench::FlagValue(argc, argv, "threads", 4));
    RetrainRun serial_run;
    RetrainRun threaded_run;
    if (!run_retrain_phase(1, &serial_run)) return 1;
    if (!run_retrain_phase(retrain_threads, &threaded_run)) return 1;
    const double retrain_speedup =
        threaded_run.avg_seconds > 0.0
            ? serial_run.avg_seconds / threaded_run.avg_seconds
            : 1.0;
    TablePrinter table({"threads", "retrains", "avg retrain s", "staleness s",
                        "model version"});
    table.AddRow({"1", std::to_string(serial_run.retrains),
                  StrFormat("%.3f", serial_run.avg_seconds),
                  StrFormat("%.3f", serial_run.staleness),
                  std::to_string(serial_run.version)});
    table.AddRow({std::to_string(retrain_threads),
                  std::to_string(threaded_run.retrains),
                  StrFormat("%.3f", threaded_run.avg_seconds),
                  StrFormat("%.3f", threaded_run.staleness),
                  std::to_string(threaded_run.version)});
    table.Print();
    std::printf("retrain speedup at %zu threads: %.2fx\n", retrain_threads,
                retrain_speedup);
    std::printf("trainer ingest (score + append): %.0f rows/s\n",
                serial_run.ingest_rows_per_s);
    registry.GetGauge("dfp.bench.stream.retrains")
        .Set(static_cast<double>(serial_run.retrains));
    registry.GetGauge("dfp.bench.stream.retrain_seconds")
        .Set(serial_run.avg_seconds);
    registry.GetGauge("dfp.bench.stream.retrain_seconds_threaded")
        .Set(threaded_run.avg_seconds);
    registry.GetGauge("dfp.bench.stream.retrain_threads_speedup")
        .Set(retrain_speedup);
    registry.GetGauge("dfp.bench.stream.staleness_seconds")
        .Set(serial_run.staleness);
    registry.GetGauge("dfp.bench.stream.trainer_ingest_rows_per_s")
        .Set(serial_run.ingest_rows_per_s);

    bench::WriteBenchReport("stream");
    return 0;
}
