// dfp_serve: TCP prediction server for dfp-model v1 bundles.
//
//   dfp_serve --model m.dfp --port 7070
//
// Speaks one-line JSON requests (see src/serve/protocol.hpp):
//
//   $ printf '{"op":"predict","items":[3,7,12]}\n' | nc 127.0.0.1 7070
//   {"ok":true,"label":1,"version":1,"latency_ms":0.41}
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes, in-flight
// requests finish and their responses flush, then the process exits 0.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/fileio.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "obs/export.hpp"
#include "obs/reqtrace.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "stream/streaming_db.hpp"
#include "stream/trainer.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

void Usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s --model <bundle.dfp> [options]\n"
        "\n"
        "options:\n"
        "  --model <path>          dfp-model v1 bundle to serve (required;\n"
        "                          also the default target of {\"op\":\"reload\"})\n"
        "  --port <n>              TCP port on 127.0.0.1 (default 7070; 0 = ephemeral)\n"
        "  --threads <n>           scoring workers, also the retrain pipeline's\n"
        "                          thread budget under --stream-ingest\n"
        "                          (default 1; 0 = all cores)\n"
        "  --max-batch <n>         micro-batch size cap (default 64)\n"
        "  --max-delay-ms <ms>     batch fill window (default 0.5)\n"
        "  --queue-capacity <n>    admission queue bound (default 1024)\n"
        "  --max-connections <n>   concurrent connection bound (default 64)\n"
        "  --deadline-ms <ms>      default per-request deadline (default: none)\n"
        "  --metrics-port <n>      HTTP side-port for GET /metrics\n"
        "                          (default: off; 0 = ephemeral)\n"
        "  --trace-out <path>      write a Chrome trace-event JSON of recent\n"
        "                          requests on drain (chrome://tracing)\n"
        "  --snapshot-out <path>   periodic JSON metrics snapshot file\n"
        "                          (atomic tmp+rename, every 2s + on drain)\n"
        "  --slow-ms <ms>          log requests slower than this end to end,\n"
        "                          with per-stage breakdown (default: off)\n"
        "  --io-timeout-s <s>      per-connection read/write deadline in\n"
        "                          seconds (slow-loris defense; default: off)\n"
        "  --stream-ingest         manual soak mode: a background thread\n"
        "                          streams a rotating-seed synthetic source\n"
        "                          through the ContinuousTrainer, which\n"
        "                          retrains on drift and hot-reloads the\n"
        "                          serving model (DESIGN.md section 16)\n"
        "  --stream-rate <n>       soak ingest rate in rows/s (default 500)\n"
        "  --stream-drift-every <n> rows between synthetic concept drifts\n"
        "                          (seed rotation; default 5000)\n"
        "  --sig-test <t>          significance filter in front of MMRFS for\n"
        "                          --stream-ingest retrains: none|chi2|fisher|\n"
        "                          odds (default none; stats/significance.hpp)\n"
        "  --alpha <a>             significance level for --sig-test\n"
        "                          (default 0.05)\n"
        "  --correction <c>        multiple-testing correction for --sig-test:\n"
        "                          none|bonferroni|bh (default bh)\n"
        "  --failpoints <spec>     arm deterministic failpoints, e.g.\n"
        "                          'serve.socket.write=prob(0.1):error;\n"
        "                          serve.registry.swap=nth(3)' (chaos testing;\n"
        "                          see src/common/failpoint.hpp for grammar;\n"
        "                          also readable from $DFP_FAILPOINTS)\n"
        "  --seed <n>              seed for the failpoint schedules (default 1;\n"
        "                          same seed + spec => same fault sequence)\n",
        argv0);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace dfp;
    using namespace dfp::serve;

    std::string model_path;
    std::string trace_out;
    std::string snapshot_out;
    std::string failpoint_spec;
    std::uint64_t failpoint_seed = 1;
    bool stream_ingest = false;
    std::size_t stream_rate = 500;
    std::size_t stream_drift_every = 5000;
    std::string sig_test = "none";
    std::string correction = "bh";
    double alpha = 0.05;
    ServerConfig server_config;
    EngineConfig engine_config;

    auto flag_value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "error: %s requires a value\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--model") == 0) {
            model_path = flag_value(i, "--model");
        } else if (std::strcmp(argv[i], "--port") == 0) {
            server_config.port =
                static_cast<std::uint16_t>(std::atoi(flag_value(i, "--port")));
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            engine_config.num_threads = static_cast<std::size_t>(
                std::strtoull(flag_value(i, "--threads"), nullptr, 10));
        } else if (std::strcmp(argv[i], "--max-batch") == 0) {
            engine_config.max_batch = static_cast<std::size_t>(
                std::strtoull(flag_value(i, "--max-batch"), nullptr, 10));
        } else if (std::strcmp(argv[i], "--max-delay-ms") == 0) {
            engine_config.max_delay_ms = std::atof(flag_value(i, "--max-delay-ms"));
        } else if (std::strcmp(argv[i], "--queue-capacity") == 0) {
            engine_config.queue_capacity = static_cast<std::size_t>(
                std::strtoull(flag_value(i, "--queue-capacity"), nullptr, 10));
        } else if (std::strcmp(argv[i], "--max-connections") == 0) {
            server_config.max_connections = static_cast<std::size_t>(
                std::strtoull(flag_value(i, "--max-connections"), nullptr, 10));
        } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
            engine_config.default_deadline_ms =
                std::atof(flag_value(i, "--deadline-ms"));
        } else if (std::strcmp(argv[i], "--metrics-port") == 0) {
            server_config.metrics_port = std::atoi(flag_value(i, "--metrics-port"));
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
            trace_out = flag_value(i, "--trace-out");
        } else if (std::strcmp(argv[i], "--snapshot-out") == 0) {
            snapshot_out = flag_value(i, "--snapshot-out");
        } else if (std::strcmp(argv[i], "--slow-ms") == 0) {
            engine_config.telemetry.slow_request_ms =
                std::atof(flag_value(i, "--slow-ms"));
        } else if (std::strcmp(argv[i], "--io-timeout-s") == 0) {
            const double seconds = std::atof(flag_value(i, "--io-timeout-s"));
            server_config.read_timeout_s = seconds;
            server_config.write_timeout_s = seconds;
        } else if (std::strcmp(argv[i], "--stream-ingest") == 0) {
            stream_ingest = true;
        } else if (std::strcmp(argv[i], "--stream-rate") == 0) {
            stream_rate = static_cast<std::size_t>(
                std::strtoull(flag_value(i, "--stream-rate"), nullptr, 10));
        } else if (std::strcmp(argv[i], "--stream-drift-every") == 0) {
            stream_drift_every = static_cast<std::size_t>(std::strtoull(
                flag_value(i, "--stream-drift-every"), nullptr, 10));
        } else if (std::strcmp(argv[i], "--sig-test") == 0) {
            sig_test = flag_value(i, "--sig-test");
        } else if (std::strcmp(argv[i], "--alpha") == 0) {
            alpha = std::atof(flag_value(i, "--alpha"));
        } else if (std::strcmp(argv[i], "--correction") == 0) {
            correction = flag_value(i, "--correction");
        } else if (std::strcmp(argv[i], "--failpoints") == 0) {
            failpoint_spec = flag_value(i, "--failpoints");
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            failpoint_seed =
                std::strtoull(flag_value(i, "--seed"), nullptr, 10);
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            Usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
            Usage(argv[0]);
            return 2;
        }
    }
    if (model_path.empty()) {
        Usage(argv[0]);
        return 2;
    }
    // Validate the significance flags up front (typos fail fast, even when
    // --stream-ingest is off and they would otherwise go unused).
    const auto parsed_sig_test = ParseSigTest(sig_test);
    const auto parsed_correction = ParseCorrection(correction);
    if (!parsed_sig_test.ok() || !parsed_correction.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     (!parsed_sig_test.ok() ? parsed_sig_test.status()
                                            : parsed_correction.status())
                         .ToString()
                         .c_str());
        return 2;
    }

    if (!failpoint_spec.empty()) {
        const Status armed = FailpointRegistry::Get().Configure(failpoint_spec,
                                                                failpoint_seed);
        if (!armed.ok()) {
            std::fprintf(stderr, "error: bad --failpoints spec: %s\n",
                         armed.ToString().c_str());
            return 2;
        }
        std::printf("dfp_serve: failpoints armed (seed %llu): %s\n",
                    static_cast<unsigned long long>(failpoint_seed),
                    failpoint_spec.c_str());
    } else {
        // No flag: honour $DFP_FAILPOINTS / $DFP_FAILPOINT_SEED if present.
        ConfigureFailpointsFromEnv();
    }

    ModelRegistry registry;
    auto loaded = registry.Reload(model_path);
    if (!loaded.ok()) {
        std::fprintf(stderr, "error: cannot load model '%s': %s\n",
                     model_path.c_str(), loaded.status().ToString().c_str());
        return 1;
    }
    std::printf("dfp_serve: loaded %s (version %llu, %zu items + %zu patterns)\n",
                model_path.c_str(),
                static_cast<unsigned long long>((*loaded)->version),
                (*loaded)->index.num_items(), (*loaded)->index.num_patterns());

    ScoringEngine engine(registry, engine_config);
    PredictionServer server(registry, engine, server_config, model_path);
    const Status started = server.Start();
    if (!started.ok()) {
        std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
        return 1;
    }
    std::printf("dfp_serve: listening on 127.0.0.1:%u (threads=%zu max_batch=%zu "
                "queue=%zu)\n",
                unsigned{server.port()}, engine_config.num_threads,
                engine_config.max_batch, engine_config.queue_capacity);
    if (server.metrics_port() != 0) {
        std::printf("dfp_serve: metrics at http://127.0.0.1:%u/metrics\n",
                    unsigned{server.metrics_port()});
    }
    std::unique_ptr<dfp::obs::PeriodicSnapshotWriter> snapshot_writer;
    if (!snapshot_out.empty()) {
        snapshot_writer = std::make_unique<dfp::obs::PeriodicSnapshotWriter>(
            snapshot_out, /*period_seconds=*/2.0);
    }

    // --stream-ingest: a background soak streams a rotating-seed synthetic
    // source through the ContinuousTrainer, which retrains on drift and hot-
    // reloads the serving model through the same registry the server reads.
    std::atomic<bool> stream_stop{false};
    std::thread stream_thread;
    std::unique_ptr<stream::StreamingDatabase> stream_db;
    std::unique_ptr<stream::ContinuousTrainer> stream_trainer;
    if (stream_ingest) {
        // The item universe comes from the synthetic shape (shared by every
        // phase); the first scheduled retrain swaps a matching model in.
        SyntheticSpec shape;
        shape.classes = 2;
        shape.attributes = 10;
        shape.arity = 3;
        shape.rows = 1;
        const auto probe = ItemEncoder::FromSchema(GenerateSynthetic(shape));
        stream::StreamConfig stream_config;
        stream_config.num_items = probe->num_items();
        stream_config.num_classes = shape.classes;
        stream_config.window_capacity = 2048;
        auto created_db = stream::StreamingDatabase::Create(stream_config);
        if (!created_db.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         created_db.status().ToString().c_str());
            return 1;
        }
        stream_db = std::move(*created_db);
        stream::ContinuousTrainerConfig trainer_config;
        trainer_config.pipeline.miner.min_sup_rel = 0.10;
        trainer_config.pipeline.miner.max_pattern_len = 4;
        trainer_config.pipeline.mmrfs.coverage_delta = 2;
        // Retrains use the same worker-thread budget as scoring: the mining
        // fan-out, significance filter and OvO training parallelise, and the
        // retrained model is thread-count-invariant (DESIGN.md §17), so
        // --threads shortens the retrain critical path for free.
        trainer_config.pipeline.num_threads = engine_config.num_threads;
        // Optional significance filter on every retrain: candidates failing
        // the corrected test are masked out of MMRFS, and the rejection count
        // surfaces in TrainerStats::last_sig_rejected / dfp.stats.* metrics.
        trainer_config.pipeline.significance.test = *parsed_sig_test;
        trainer_config.pipeline.significance.alpha = alpha;
        trainer_config.pipeline.significance.correction = *parsed_correction;
        trainer_config.retrain_every = 1024;
        trainer_config.min_window = 512;
        trainer_config.model_dir =
            "/tmp/dfp_serve_stream_" + std::to_string(::getpid());
        auto created_trainer = stream::ContinuousTrainer::Create(
            trainer_config, stream_db.get(), &registry);
        if (!created_trainer.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         created_trainer.status().ToString().c_str());
            return 1;
        }
        stream_trainer = std::move(*created_trainer);
        std::printf(
            "dfp_serve: stream-ingest soak on (%zu rows/s, drift every %zu "
            "rows, models in %s)\n",
            stream_rate, stream_drift_every,
            trainer_config.model_dir.c_str());
        if (*parsed_sig_test != SigTest::kNone) {
            std::printf(
                "dfp_serve: retrain significance filter: %s alpha=%g "
                "correction=%s\n",
                sig_test.c_str(), alpha, correction.c_str());
        }

        stream_thread = std::thread([&, shape] {
            constexpr std::size_t kBatch = 64;
            const auto batch_interval = std::chrono::duration<double>(
                static_cast<double>(kBatch) /
                static_cast<double>(std::max<std::size_t>(1, stream_rate)));
            std::uint64_t phase = 0;
            while (!stream_stop.load(std::memory_order_relaxed)) {
                SyntheticSpec spec = shape;
                spec.rows = stream_drift_every;
                spec.seed = 1 + phase * 104729;  // rotate the concept
                const Dataset data = GenerateSynthetic(spec);
                const auto encoder = ItemEncoder::FromSchema(data);
                std::size_t row = 0;
                while (row < data.num_rows() &&
                       !stream_stop.load(std::memory_order_relaxed)) {
                    stream::TransactionBatch batch;
                    const std::size_t end =
                        std::min(row + kBatch, data.num_rows());
                    for (; row < end; ++row) {
                        batch.transactions.push_back(
                            encoder->EncodeRow(data, row));
                        batch.labels.push_back(data.label(row));
                    }
                    const auto appended =
                        stream_trainer->Ingest(std::move(batch));
                    if (!appended.ok()) {
                        std::fprintf(stderr, "stream-ingest: %s\n",
                                     appended.status().ToString().c_str());
                        return;
                    }
                    const auto pumped = stream_trainer->MaybeRetrain();
                    if (!pumped.ok()) {
                        // A failed retrain keeps the previous model serving
                        // and stays armed for retry; the soak carries on.
                        std::fprintf(stderr, "stream-ingest: retrain: %s\n",
                                     pumped.status().ToString().c_str());
                    }
                    std::this_thread::sleep_for(batch_interval);
                }
                ++phase;
            }
        });
    }

    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    sigset_t wait_set;
    sigemptyset(&wait_set);
    while (g_stop_requested == 0) {
        sigsuspend(&wait_set);  // sleep until a signal arrives
    }

    std::printf("dfp_serve: draining...\n");
    if (stream_thread.joinable()) {
        stream_stop.store(true);
        stream_thread.join();
        const stream::TrainerStats stats = stream_trainer->stats();
        std::printf(
            "dfp_serve: stream-ingest soak: %llu rows, %llu retrains "
            "(%llu drift, %llu schedule), %llu failures, model v%llu\n",
            static_cast<unsigned long long>(stats.ingested),
            static_cast<unsigned long long>(stats.retrains),
            static_cast<unsigned long long>(stats.drift_triggers),
            static_cast<unsigned long long>(stats.schedule_triggers),
            static_cast<unsigned long long>(stats.retrain_failures),
            static_cast<unsigned long long>(stats.last_model_version));
    }
    server.Stop();
    engine.Stop();
    if (snapshot_writer != nullptr) snapshot_writer->Stop();
    if (!trace_out.empty()) {
        const auto traces = engine.trace_ring().Dump();
        const Status written = dfp::WriteFileAtomic(
            trace_out, dfp::obs::RenderChromeTrace(traces) + "\n");
        if (written.ok()) {
            std::printf("dfp_serve: wrote %zu request traces to %s\n",
                        traces.size(), trace_out.c_str());
        } else {
            std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
        }
    }
    for (const auto& fp : FailpointRegistry::Get().Snapshot()) {
        if (fp.trips > 0) {
            std::printf("dfp_serve: failpoint %s tripped %llu/%llu hits\n",
                        fp.name.c_str(),
                        static_cast<unsigned long long>(fp.trips),
                        static_cast<unsigned long long>(fp.hits));
        }
    }
    std::printf("dfp_serve: drained, bye\n");
    return 0;
}
