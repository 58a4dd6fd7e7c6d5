// Serving workloads: closed-loop predict traffic over loopback TCP.
//
//   serve-steady   the read path by itself: PredictionServer + ScoringEngine
//                  (defaults: max_batch 64, max_delay_ms 0.5, 1 thread) serving
//                  the 4000x30 density-0.40 model bench_serving trains.
//   serve-retrain  the same reads, while a ContinuousTrainer in this process
//                  ingests a paced DriftSource stream and retrains every 1024
//                  rows, each retrain ending in ModelRegistry::Reload.
//
// Load: 2 generator threads, one ServeClient connection each, sending
// single-transaction predicts of seeded held-out rows back to back. The
// model and the stream are fixed; the benchmark seed draws the requests.
//
// Every served label is checked against LoadedModel::Predict of the version
// that served it, versions may never go backwards on a connection, and
// serve-retrain must complete exactly the scheduled number of retrains.
//
// The served bundle is trained and saved by a separate --prepare process, so
// this process only loads it. An untraced run splits its time into segments;
// each starts by tearing the stack down and building it again a few times
// (the set-up samples) and serves its load on the last one. The traced run
// adds, after one load window, the serving chain measured layer by layer
// from outside: PatternMatchIndex::EncodeInto plus the learner (score),
// ScoringEngine::Predict (engine), RequestDispatcher::HandleLine (protocol)
// and the TCP round trip.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "serve/scoring_index.hpp"
#include "serve/server.hpp"
#include "stream/streaming_db.hpp"
#include "stream/trainer.hpp"
#include "testutil/drift_source.hpp"

namespace perfbench {
namespace {

using namespace dfp;

// bench_serving's corpus and model.
constexpr std::size_t kCorpusRows = 4000;
constexpr std::size_t kCorpusItems = 30;
constexpr double kCorpusDensity = 0.40;
constexpr std::uint64_t kCorpusSeed = 11;
constexpr std::size_t kHeldOutRows = 1000;

constexpr int kConnections = 2;
constexpr int kWarmupPerConnection = 1;
/// An untraced run is split into at most this many segments of at least
/// kSegmentSeconds. Each segment starts with a burst of stack set-ups, at
/// least kBurstReps and kBurstSeconds long, and serves on the last stack.
constexpr int kMaxSegments = 5;
constexpr double kSegmentSeconds = 5.0;
constexpr int kBurstReps = 2;
constexpr double kBurstSeconds = 0.25;

// The streaming writer of serve-retrain (bench_stream's retrain config).
constexpr std::size_t kWindow = 2048;
constexpr std::size_t kRetrainEvery = 1024;
constexpr std::size_t kBatchRows = 256;
constexpr double kRowsPerSecond = 2048.0;
constexpr std::uint64_t kStreamSeed = 29;

/// Side ModelRegistry::Reload repetitions in the traced run.
constexpr int kReloadReps = 7;

/// bench_serving's DenseCorpus: the first kCorpusRows rows are identical to
/// it, the rows after them are held out for requests.
TransactionDatabase DenseCorpus(std::size_t rows) {
    Rng rng(kCorpusSeed);
    std::vector<std::vector<ItemId>> txns(rows);
    std::vector<ClassLabel> labels(rows);
    for (std::size_t t = 0; t < rows; ++t) {
        for (ItemId i = 0; i < kCorpusItems; ++i) {
            if (rng.Bernoulli(kCorpusDensity)) txns[t].push_back(i);
        }
        if (txns[t].empty()) {
            txns[t].push_back(static_cast<ItemId>(t % kCorpusItems));
        }
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(
        std::move(txns), std::move(labels), kCorpusItems, 2);
}

struct Inputs {
    bool retrain = false;
    std::string model_path;
    std::string stream_dir;
    std::vector<std::vector<ItemId>> held_out;
    std::unique_ptr<testutil::DriftSource> source;
};

stream::ContinuousTrainerConfig TrainerConfig(const Inputs& inputs) {
    stream::ContinuousTrainerConfig c;
    c.pipeline.miner.min_sup_rel = 0.10;
    c.pipeline.miner.max_pattern_len = 4;
    c.pipeline.miner.include_singletons = false;
    c.pipeline.mmrfs.coverage_delta = 2;
    c.learner_type = "nb";
    c.retrain_every = kRetrainEvery;
    c.min_window = kRetrainEvery;
    c.drift_trigger = false;
    c.model_dir = inputs.stream_dir;
    return c;
}

/// The served stack. Members are torn down in reverse: clients, trainer,
/// then the server drains and the engine stops before the registry goes.
struct Stack {
    Stack() = default;
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;
    ~Stack() {
        clients.clear();
        trainer.reset();
        if (server) server->Stop();
        if (engine) engine->Stop();
    }

    serve::ModelRegistry registry;
    std::unique_ptr<serve::ScoringEngine> engine;
    std::unique_ptr<serve::PredictionServer> server;
    std::unique_ptr<stream::StreamingDatabase> stream_db;
    std::unique_ptr<stream::ContinuousTrainer> trainer;
    std::vector<serve::ServeClient> clients;
    /// Every version that could have served a request, kept alive for the
    /// correctness check.
    std::map<std::uint64_t, serve::ServablePtr> versions;
};

Status Ingest(Stack& stack, testutil::DriftSource& source, std::size_t rows) {
    for (std::size_t done = 0; done < rows; done += kBatchRows) {
        auto appended = stack.trainer->Ingest(source.NextBatch(kBatchRows));
        if (!appended.ok()) return appended.status();
    }
    return Status::Ok();
}

/// Set-up a user pays once: load the bundle and build its index, start the
/// engine and server, connect, warm up; serve-retrain adds the bootstrap
/// retrain over the first window of the stream.
Result<std::unique_ptr<Stack>> BuildStack(const Inputs& inputs) {
    auto stack = std::make_unique<Stack>();
    auto loaded = stack->registry.Reload(inputs.model_path);
    if (!loaded.ok()) return loaded.status();
    stack->engine = std::make_unique<serve::ScoringEngine>(stack->registry,
                                                           serve::EngineConfig{});
    serve::ServerConfig server_config;
    server_config.port = 0;
    stack->server = std::make_unique<serve::PredictionServer>(
        stack->registry, *stack->engine, server_config, inputs.model_path);
    DFP_RETURN_NOT_OK(stack->server->Start());
    for (int c = 0; c < kConnections; ++c) {
        auto client = serve::ServeClient::Connect("127.0.0.1", stack->server->port());
        if (!client.ok()) return client.status();
        stack->clients.push_back(std::move(client).value());
    }
    for (int c = 0; c < kConnections; ++c) {
        for (int i = 0; i < kWarmupPerConnection; ++i) {
            const auto& row =
                inputs.held_out[(c * kWarmupPerConnection + i) % inputs.held_out.size()];
            auto warm = stack->clients[c].Predict(row);
            if (!warm.ok()) return warm.status();
        }
    }
    if (inputs.retrain) {
        stream::StreamConfig stream_config;
        stream_config.num_items = inputs.source->num_items();
        stream_config.num_classes = inputs.source->num_classes();
        stream_config.window_capacity = kWindow;
        auto db = stream::StreamingDatabase::Create(stream_config);
        if (!db.ok()) return db.status();
        stack->stream_db = std::move(db).value();
        auto trainer = stream::ContinuousTrainer::Create(
            TrainerConfig(inputs), stack->stream_db.get(), &stack->registry);
        if (!trainer.ok()) return trainer.status();
        stack->trainer = std::move(trainer).value();
        inputs.source->Reset();
        DFP_RETURN_NOT_OK(Ingest(*stack, *inputs.source, kWindow));
        DFP_RETURN_NOT_OK(stack->trainer->RetrainNow("bootstrap"));
    }
    const serve::ServablePtr serving = stack->registry.Snapshot();
    stack->versions[serving->version] = serving;
    return stack;
}

std::uint32_t PickRow(Rng& rng, std::size_t rows) {
    return static_cast<std::uint32_t>(rng.UniformInt(std::uint64_t{rows}));
}

/// One served answer, kept for the correctness check.
struct Served {
    std::uint32_t row;
    ClassLabel label;
    std::uint64_t version;
};

double Gauge(const obs::MetricsSnapshot& snap, const char* name) {
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0.0 : it->second;
}

std::uint64_t Counter(const obs::MetricsSnapshot& snap, const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

/// Requests the engine has shed so far.
std::uint64_t Shed() {
    return Counter(obs::Registry::Get().Snapshot(), "dfp.serve.shed");
}

struct WindowResult {
    std::vector<double> latency_ms;
    std::vector<std::vector<Served>> served;  ///< per connection, in order
    std::uint64_t errors = 0;
    double wall_s = 0.0;
    /// Process CPU minus the generator threads' own CPU (the streaming
    /// writer's included).
    double server_cpu_s = 0.0;
    double generator_cpu_s = 0.0;
    // Streaming writer (serve-retrain).
    std::size_t rows_ingested = 0;
    double ingest_s = 0.0;
    std::size_t retrains_scheduled = 0;
    std::size_t retrains = 0;
    std::vector<double> retrain_ms, mine_ms, mmrfs_ms, transform_ms, learn_ms;
    std::string writer_error;

    double PerPredUs(double seconds) const {
        const std::size_t preds = std::max<std::size_t>(latency_ms.size(), 1);
        return 1e6 * seconds / static_cast<double>(preds);
    }
};

/// Runs closed-loop reads (and, for serve-retrain, the paced writer) for
/// `seconds`.
WindowResult RunWindow(Stack& stack, Inputs& inputs, double seconds,
                       std::uint64_t seed) {
    WindowResult out;
    out.served.resize(kConnections);
    std::vector<std::vector<double>> latencies(kConnections);
    std::vector<double> generator_cpu(kConnections, 0.0);
    std::atomic<std::uint64_t> errors{0};
    std::atomic<bool> stop{false};
    const bool writer = inputs.retrain;
    std::latch go(kConnections + (writer ? 1 : 0) + 1);

    std::vector<std::thread> readers;
    for (int c = 0; c < kConnections; ++c) {
        readers.emplace_back([&, c] {
            Rng rng(MixSeed(seed, 0x7265616400ull + static_cast<std::uint64_t>(c)));
            auto& lat = latencies[c];
            auto& served = out.served[c];
            lat.reserve(1 << 16);
            served.reserve(1 << 16);
            go.arrive_and_wait();
            const double cpu0 = ThreadCpuSeconds();
            while (!stop.load(std::memory_order_relaxed)) {
                const std::uint32_t row = PickRow(rng, inputs.held_out.size());
                const auto t0 = Clock::now();
                auto result = stack.clients[c].Predict(inputs.held_out[row]);
                const auto t1 = Clock::now();
                if (!result.ok()) {
                    errors.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                lat.push_back(Millis(t1 - t0));
                served.push_back({row, result->label, result->model_version});
            }
            generator_cpu[c] = ThreadCpuSeconds() - cpu0;
        });
    }

    std::thread writer_thread;
    if (writer) {
        const auto rows = static_cast<std::size_t>(seconds * kRowsPerSecond) /
                          kRetrainEvery * kRetrainEvery;
        out.retrains_scheduled = rows / kRetrainEvery;
        writer_thread = std::thread([&, rows] {
            const double period = static_cast<double>(kBatchRows) / kRowsPerSecond;
            go.arrive_and_wait();
            const auto begin = Clock::now();
            for (std::size_t k = 0; k * kBatchRows < rows; ++k) {
                std::this_thread::sleep_until(
                    begin + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(k * period)));
                stream::TransactionBatch batch = inputs.source->NextBatch(kBatchRows);
                const std::size_t n = batch.size();
                const auto t0 = Clock::now();
                auto appended = stack.trainer->Ingest(std::move(batch));
                const auto t1 = Clock::now();
                if (!appended.ok() || n != kBatchRows) {
                    out.writer_error = appended.ok() ? "stream ran dry"
                                                     : appended.status().ToString();
                    return;
                }
                out.rows_ingested += n;
                out.ingest_s += Millis(t1 - t0) / 1e3;
                auto retrained = stack.trainer->MaybeRetrain();
                const auto t2 = Clock::now();
                if (!retrained.ok()) {
                    out.writer_error = retrained.status().ToString();
                    return;
                }
                if (!*retrained) continue;
                ++out.retrains;
                out.retrain_ms.push_back(Millis(t2 - t1));
                const serve::ServablePtr published = stack.registry.Snapshot();
                stack.versions[published->version] = published;
                const auto snap = obs::Registry::Get().Snapshot();
                auto stage_ms = [&](const char* name) { return 1e3 * Gauge(snap, name); };
                out.mine_ms.push_back(stage_ms("dfp.core.pipeline.mine_seconds"));
                out.mmrfs_ms.push_back(stage_ms("dfp.core.pipeline.select_seconds"));
                out.transform_ms.push_back(
                    stage_ms("dfp.core.pipeline.transform_seconds"));
                out.learn_ms.push_back(stage_ms("dfp.core.pipeline.learn_seconds"));
            }
        });
    }

    const double cpu0 = ProcessCpuSeconds();
    go.arrive_and_wait();
    const auto start = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    if (writer_thread.joinable()) writer_thread.join();
    stop.store(true);
    for (auto& t : readers) t.join();
    out.wall_s = MicrosSince(start) / 1e6;

    for (double cpu : generator_cpu) out.generator_cpu_s += cpu;
    out.server_cpu_s = ProcessCpuSeconds() - cpu0 - out.generator_cpu_s;
    for (const auto& lat : latencies) {
        out.latency_ms.insert(out.latency_ms.end(), lat.begin(), lat.end());
    }
    out.errors = errors.load();
    return out;
}

/// Checks every served answer against LoadedModel::Predict of its version.
void CheckServed(const Stack& stack, const Inputs& inputs,
                 const std::vector<std::vector<Served>>& served,
                 Outcome& outcome) {
    std::map<std::uint64_t, std::vector<int>> expected;
    for (const auto& connection : served) {
        std::uint64_t last_version = 0;
        for (const Served& s : connection) {
            if (s.version < last_version) {
                outcome.Fail("model version went backwards on a connection");
            }
            last_version = s.version;
            const auto it = stack.versions.find(s.version);
            if (it == stack.versions.end()) {
                outcome.Fail("served by unknown model version " +
                             std::to_string(s.version));
                continue;
            }
            auto& labels = expected[s.version];
            if (labels.empty()) labels.assign(inputs.held_out.size(), -1);
            int& want = labels[s.row];
            if (want < 0) {
                const auto& row = inputs.held_out[s.row];
                want = static_cast<int>(it->second->model.Predict(row));
            }
            if (static_cast<int>(s.label) != want) {
                outcome.Fail("served label differs from LoadedModel::Predict");
            }
        }
    }
}

void CheckWindow(const Stack& stack, const Inputs& inputs,
                 const WindowResult& w, Outcome& outcome) {
    outcome.attempted += w.latency_ms.size() + w.errors;
    if (w.errors > 0) outcome.Fail("predict requests failed", w.errors);
    CheckServed(stack, inputs, w.served, outcome);
    if (!inputs.retrain) return;
    outcome.attempted += w.retrains_scheduled;
    if (!w.writer_error.empty()) outcome.Fail("stream writer: " + w.writer_error);
    if (w.retrains != w.retrains_scheduled) {
        outcome.Fail("completed " + std::to_string(w.retrains) + " retrains, " +
                         std::to_string(w.retrains_scheduled) + " scheduled",
                     w.retrains_scheduled > w.retrains
                         ? w.retrains_scheduled - w.retrains
                         : 1);
    }
}

/// Calls `op(thread, rng)` from kConnections threads for `seconds`,
/// collecting the latencies it returns (ms; negative = failed). Adds the
/// threads' total time in the loop to `busy_ms`.
template <typename Op>
std::vector<double> RunInProcess(double seconds, std::uint64_t seed,
                                 std::uint64_t& failures, double& busy_ms, Op op) {
    std::vector<std::vector<double>> latencies(kConnections);
    std::vector<double> busy(kConnections, 0.0);
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> failed{0};
    std::latch go(kConnections + 1);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            Rng rng(MixSeed(seed, 0x696e70726f00ull + static_cast<std::uint64_t>(c)));
            go.arrive_and_wait();
            const auto start = Clock::now();
            while (!stop.load(std::memory_order_relaxed)) {
                const double ms = op(c, rng);
                if (ms < 0) {
                    failed.fetch_add(1, std::memory_order_relaxed);
                } else {
                    latencies[c].push_back(ms);
                }
            }
            busy[c] = Millis(Clock::now() - start);
        });
    }
    go.arrive_and_wait();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (auto& t : threads) t.join();
    failures += failed.load();
    for (double ms : busy) busy_ms += ms;
    std::vector<double> all;
    for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
    return all;
}

std::string PredictLine(const std::vector<ItemId>& items) {
    std::string line = "{\"op\":\"predict\",\"items\":[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) line += ',';
        line += std::to_string(items[i]);
    }
    return line + "]}";
}

double ElapsedMs(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Medians of the serving chain's layers, each called from outside.
struct ChainTimes {
    double score_us = 0.0;
    double engine_ms = 0.0;
    /// From the engine's own request traces.
    double queue_ms = 0.0;
    double batch_wait_ms = 0.0;
    double dispatch_ms = 0.0;
    /// The chain threads' time outside the layer timers (row picks, request
    /// lines, response parsing, recording answers), as a share of the
    /// timed calls.
    double overhead_pct = 0.0;
};

/// The serving chain, layer by layer, on the live stack (writer idle).
ChainTimes MeasureChain(Stack& stack, const Inputs& inputs,
                        const RunOptions& options, double seconds,
                        Metrics& metrics, Outcome& outcome) {
    ChainTimes chain;
    double busy_ms = 0.0;
    double timed_ms = 0.0;
    const serve::ServablePtr snapshot = stack.registry.Snapshot();
    const std::size_t rows = inputs.held_out.size();
    // One list per calling thread, so the threads never share one.
    std::vector<std::vector<Served>> served(kConnections);

    // score: index encode + learner predict, single thread.
    {
        const auto& patterns = snapshot->model.feature_space().patterns();
        std::vector<double> postings(snapshot->index.num_items(), 0.0);
        for (const Pattern& p : patterns) {
            for (ItemId i : p.items) postings[i] += 1.0;
        }
        serve::PatternMatchIndex::Scratch scratch;
        snapshot->index.InitScratch(&scratch);
        Rng rng(MixSeed(options.seed, 0x73636f7265ull));
        std::vector<double> score_us;
        double walked = 0.0;
        const auto start = Clock::now();
        const auto end = start + std::chrono::duration<double>(seconds * 0.2);
        while (Clock::now() < end) {
            const std::uint32_t row = PickRow(rng, rows);
            const auto t0 = Clock::now();
            snapshot->index.EncodeInto(inputs.held_out[row], &scratch);
            const ClassLabel label = snapshot->model.learner().Predict(scratch.encoded);
            score_us.push_back(1e3 * ElapsedMs(t0));
            served[0].push_back({row, label, snapshot->version});
            for (ItemId i : inputs.held_out[row]) {
                walked += i < postings.size() ? postings[i] : 0.0;
            }
        }
        busy_ms += Millis(Clock::now() - start);
        timed_ms += std::accumulate(score_us.begin(), score_us.end(), 0.0) / 1e3;
        outcome.attempted += score_us.size();
        chain.score_us = Median(score_us);
        metrics.Set("serve.index.postings_per_pred",
                    walked / static_cast<double>(score_us.size()));
    }

    std::uint64_t failures = 0;
    // engine: ScoringEngine::Predict in process, same concurrency as the load.
    const auto before = obs::Registry::Get().Snapshot();
    const double phase_us = obs::NowMicros();
    const std::vector<double> engine_ms =
        RunInProcess(seconds * 0.4, options.seed ^ 1, failures, busy_ms, [&](int c, Rng& rng) {
            const std::uint32_t row = PickRow(rng, rows);
            const auto t0 = Clock::now();
            auto result = stack.engine->Predict(inputs.held_out[row]);
            const double ms = ElapsedMs(t0);
            if (!result.ok()) return -1.0;
            served[c].push_back({row, result->label, result->model_version});
            return ms;
        });
    const auto after = obs::Registry::Get().Snapshot();
    std::vector<double> queue_ms, batch_wait_ms;
    for (const obs::RequestTrace& t : stack.engine->trace_ring().Dump()) {
        if (t.submit_us < phase_us || t.score_end_us <= 0.0) continue;
        queue_ms.push_back((t.dequeue_us - t.submit_us) / 1e3);
        batch_wait_ms.push_back((t.score_start_us - t.dequeue_us) / 1e3);
    }
    const double batches = static_cast<double>(Counter(after, "dfp.serve.batches") -
                                               Counter(before, "dfp.serve.batches"));
    const double predictions =
        static_cast<double>(Counter(after, "dfp.serve.predictions") -
                            Counter(before, "dfp.serve.predictions"));

    // protocol: RequestDispatcher::HandleLine in process.
    serve::RequestDispatcher& dispatcher = stack.server->dispatcher();
    const std::vector<double> dispatch_ms =
        RunInProcess(seconds * 0.4, options.seed ^ 2, failures, busy_ms, [&](int c, Rng& rng) {
            const std::uint32_t row = PickRow(rng, rows);
            const std::string line = PredictLine(inputs.held_out[row]);
            const auto t0 = Clock::now();
            const std::string response = dispatcher.HandleLine(line);
            const double ms = ElapsedMs(t0);
            auto parsed = obs::ParseJson(response);
            if (!parsed.ok()) return -1.0;
            const obs::JsonValue* ok = parsed->Find("ok");
            const obs::JsonValue* label = parsed->Find("label");
            const obs::JsonValue* version = parsed->Find("version");
            if (ok == nullptr || !ok->boolean() || label == nullptr ||
                version == nullptr) {
                return -1.0;
            }
            served[c].push_back({row, static_cast<ClassLabel>(label->number()),
                                 static_cast<std::uint64_t>(version->number())});
            return ms;
        });
    outcome.attempted += engine_ms.size() + dispatch_ms.size() + failures;
    if (failures > 0) outcome.Fail("in-process predicts failed", failures);
    CheckServed(stack, inputs, served, outcome);

    chain.engine_ms = Median(engine_ms);
    chain.dispatch_ms = Median(dispatch_ms);
    timed_ms += std::accumulate(engine_ms.begin(), engine_ms.end(), 0.0) +
                std::accumulate(dispatch_ms.begin(), dispatch_ms.end(), 0.0);
    chain.overhead_pct = 100.0 * (busy_ms - timed_ms) / timed_ms;
    chain.queue_ms = Median(queue_ms);
    chain.batch_wait_ms = Median(batch_wait_ms);
    metrics.Set("serve.batch_size_mean", batches > 0 ? predictions / batches : 0.0);
    return chain;
}

std::string ModelPath(const RunOptions& options) {
    return options.workdir + "/served.dfp";
}

TransactionDatabase Corpus(const RunOptions& options, std::size_t* corpus_rows) {
    *corpus_rows = options.tiny ? kCorpusRows / 8 : kCorpusRows;
    const std::size_t held_out = options.tiny ? kHeldOutRows / 8 : kHeldOutRows;
    return DenseCorpus(*corpus_rows + held_out);
}

Inputs MakeInputs(const RunOptions& options) {
    Inputs inputs;
    inputs.retrain = options.workload == "serve-retrain";
    std::size_t corpus_rows = 0;
    const TransactionDatabase all = Corpus(options, &corpus_rows);
    for (std::size_t r = corpus_rows; r < all.num_transactions(); ++r) {
        inputs.held_out.push_back(all.transaction(r));
    }
    inputs.model_path = ModelPath(options);
    inputs.stream_dir = options.workdir + "/stream";
    if (inputs.retrain) {
        // Enough stream for the bootstrap window plus every timed window.
        const auto rows = static_cast<std::size_t>(
            kWindow + options.seconds * kRowsPerSecond + 4 * kBatchRows);
        testutil::DriftSourceConfig config;
        config.num_phases = 4;
        config.rows_per_phase = (rows + 3) / 4;
        config.eval_rows = 16;
        config.attributes = 10;
        config.arity = 3;
        config.seed = kStreamSeed;
        inputs.source = std::make_unique<testutil::DriftSource>(config);
    }
    std::filesystem::create_directories(inputs.stream_dir);
    return inputs;
}

}  // namespace

bool PrepareServeModel(const RunOptions& options) {
    std::size_t corpus_rows = 0;
    const TransactionDatabase all = Corpus(options, &corpus_rows);
    std::vector<std::size_t> train_rows(corpus_rows);
    for (std::size_t r = 0; r < corpus_rows; ++r) train_rows[r] = r;
    // bench_serving's model.
    PipelineConfig config;
    config.miner.min_sup_rel = 0.05;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 4;
    PatternClassifierPipeline pipeline(config);
    Status st = pipeline.Train(all.Subset(train_rows),
                               std::make_unique<NaiveBayesClassifier>());
    if (st.ok()) st = SavePipelineModelToFile(pipeline, ModelPath(options));
    if (!st.ok()) {
        std::fprintf(stderr, "dfp_perfbench: could not train and save the served "
                             "model: %s\n", st.ToString().c_str());
    }
    return st.ok();
}

void RunServeWorkload(const RunOptions& options, Metrics& metrics,
                      Outcome& outcome, Provenance& provenance) {
    Inputs inputs = MakeInputs(options);
    if (!std::filesystem::exists(inputs.model_path)) {
        outcome.Fail("no served model at " + inputs.model_path +
                     " (run --prepare first)");
        return;
    }
    if (inputs.retrain && inputs.source->num_items() != kCorpusItems) {
        outcome.Fail("stream item universe differs from the served model's");
        return;
    }

    // Tears the current stack down (outside the timer), builds a new one
    // and records the set-up's time; false if the set-up failed.
    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    auto build = [&] {
        stack.reset();
        const auto start = Clock::now();
        auto built = BuildStack(inputs);
        const double seconds = MicrosSince(start) / 1e6;
        ++outcome.attempted;
        if (!built.ok()) {
            outcome.Fail("set-up failed: " + built.status().ToString());
            return false;
        }
        setup_s.push_back(seconds);
        stack = std::move(built).value();
        return true;
    };
    const std::uint64_t shed0 = Shed();
    if (!options.trace) {
        // Segments, each opened by a burst of set-ups; the load runs on the
        // last stack of the burst, and every window is checked against the
        // stack that served it.
        const int segments = std::clamp(
            static_cast<int>(options.seconds / kSegmentSeconds), 1, kMaxSegments);
        std::vector<double> latency_ms;
        double wall_s = 0.0, server_cpu_s = 0.0;
        std::size_t retrains = 0;
        for (int segment = 0; segment < segments; ++segment) {
            const auto burst_end =
                Clock::now() + std::chrono::duration<double>(kBurstSeconds);
            for (int rep = 0; rep < kBurstReps || Clock::now() < burst_end; ++rep) {
                if (!build()) return;
            }
            const WindowResult w =
                RunWindow(*stack, inputs, options.seconds / segments,
                          MixSeed(options.seed, static_cast<std::uint64_t>(segment)));
            CheckWindow(*stack, inputs, w, outcome);
            latency_ms.insert(latency_ms.end(), w.latency_ms.begin(), w.latency_ms.end());
            wall_s += w.wall_s;
            server_cpu_s += w.server_cpu_s;
            retrains += w.retrains;
        }
        const serve::ServablePtr served_model = stack->registry.Snapshot();
        metrics.Set("setup_s", Percentile(setup_s, 0.0));
        // The 10th percentile: the minimum is a request that happened to
        // arrive just as a micro-batch closed (see kEndToEnd).
        metrics.Set("latency_floor_ms", Percentile(latency_ms, 0.1));
        metrics.Set("peak_rss_mb", PeakRssMb());
        provenance.emplace_back("model_patterns",
                                std::to_string(served_model->index.num_patterns()));
        provenance.emplace_back("held_out_rows", std::to_string(inputs.held_out.size()));
        provenance.emplace_back("segments", std::to_string(segments));
        provenance.emplace_back("setup_s", LatencySummary(setup_s));
        provenance.emplace_back("ops", std::to_string(latency_ms.size()));
        provenance.emplace_back("latency_ms", LatencySummary(latency_ms));
        provenance.emplace_back(
            "preds_per_s", JsonNumber(static_cast<double>(latency_ms.size()) / wall_s));
        provenance.emplace_back(
            "cpu_us_per_pred",
            JsonNumber(1e6 * server_cpu_s / static_cast<double>(latency_ms.size())));
        provenance.emplace_back("retrains", std::to_string(retrains));
        provenance.emplace_back("shed", std::to_string(Shed() - shed0));
        return;
    }

    // Traced run: one load window, then the chain.
    if (!build()) return;
    Stack& live = *stack;
    const WindowResult window =
        RunWindow(live, inputs, 0.4 * options.seconds, options.seed);
    CheckWindow(live, inputs, window, outcome);
    const ChainTimes chain =
        MeasureChain(live, inputs, options, 0.6 * options.seconds, metrics, outcome);

    // ModelRegistry::Reload of the bundle currently served, on a side
    // registry so the live one is untouched.
    std::string bundle = inputs.model_path;
    if (inputs.retrain) {
        bundle = inputs.stream_dir + "/stream_model_v" +
                 std::to_string(live.trainer->stats().last_stream_version) + ".dfp";
    }
    std::vector<double> reload_ms;
    for (int rep = 0; rep < kReloadReps; ++rep) {
        serve::ModelRegistry side;
        const auto t0 = Clock::now();
        auto reloaded = side.Reload(bundle);
        reload_ms.push_back(ElapsedMs(t0));
        ++outcome.attempted;
        if (!reloaded.ok()) outcome.Fail("side reload: " + reloaded.status().ToString());
    }

    const double roundtrip = Percentile(window.latency_ms, 0.5);
    const auto samples = static_cast<double>(window.latency_ms.size());
    metrics.Set("serve.roundtrip_ms", roundtrip);
    metrics.Set("serve.roundtrip_p90_ms", Percentile(window.latency_ms, 0.9));
    metrics.Set("serve.roundtrip_p99_ms", Percentile(window.latency_ms, 0.99));
    metrics.Set("serve.roundtrip_samples", samples);
    metrics.Set("serve.cpu_us_per_pred", window.PerPredUs(window.server_cpu_s));
    metrics.Set("serve.preds_per_s", samples / window.wall_s);
    // Self times: each layer minus the layer it calls. They telescope, so
    // score + the self times equals the round trip.
    const double engine_self_ms = chain.engine_ms - chain.score_us / 1e3;
    metrics.Set("serve.score_us", chain.score_us);
    metrics.Set("serve.engine_ms", chain.engine_ms);
    metrics.Set("serve.engine_self_ms", engine_self_ms);
    metrics.Set("serve.queue_ms", chain.queue_ms);
    metrics.Set("serve.batch_wait_ms", chain.batch_wait_ms);
    metrics.Set("serve.dispatch_ms", chain.dispatch_ms);
    metrics.Set("serve.dispatch_self_ms", chain.dispatch_ms - chain.engine_ms);
    metrics.Set("serve.roundtrip_self_ms", roundtrip - chain.dispatch_ms);
    // The engine's own request traces split its self time into queue and
    // batch-fill wait; the residual is what they leave unexplained (the
    // hand-off back to the caller).
    metrics.Set("serve.residual_ms", engine_self_ms - chain.queue_ms - chain.batch_wait_ms);
    metrics.Set("serve.generator_cpu_us_per_pred",
                window.PerPredUs(window.generator_cpu_s));
    metrics.Set("serve.shed", static_cast<double>(Shed() - shed0));
    metrics.Set("serve.errors", static_cast<double>(window.errors));
    metrics.Set("serve.registry.reload_ms", Median(reload_ms));
    if (inputs.retrain) {
        const std::size_t rows = std::max<std::size_t>(window.rows_ingested, 1);
        metrics.Set("stream.ingest_us_per_row",
                    1e6 * window.ingest_s / static_cast<double>(rows));
        metrics.Set("stream.retrain_ms", Median(window.retrain_ms));
        metrics.Set("stream.retrain.mine_ms", Median(window.mine_ms));
        metrics.Set("stream.retrain.mmrfs_ms", Median(window.mmrfs_ms));
        metrics.Set("stream.retrain.transform_ms", Median(window.transform_ms));
        metrics.Set("stream.retrain.learn_ms", Median(window.learn_ms));
        // Window mining, bundle save and the registry reload.
        metrics.Set("stream.retrain.residual_ms",
                    Median(window.retrain_ms) - Median(window.mine_ms) -
                        Median(window.mmrfs_ms) - Median(window.transform_ms) -
                        Median(window.learn_ms));
        metrics.Set("stream.retrains", static_cast<double>(window.retrains));
    }
    metrics.Set("trace.overhead_pct", chain.overhead_pct);
    const serve::ServablePtr served_model = live.registry.Snapshot();
    provenance.emplace_back("model_patterns",
                            std::to_string(served_model->index.num_patterns()));
    provenance.emplace_back("held_out_rows", std::to_string(inputs.held_out.size()));
    provenance.emplace_back("ops", std::to_string(window.latency_ms.size()));
}

}  // namespace perfbench
