// Chaos suite: a live loopback prediction server under seeded, randomized
// fault schedules (ISSUE/DESIGN.md §15). Invariants checked across seeds:
//
//  * the process never crashes or hangs — every injected fault surfaces as a
//    clean Status or error response;
//  * every prediction that does succeed is bit-identical to the offline
//    model's answer (faults may fail requests, never corrupt them);
//  * a reload that fails at ANY stage (torn read, validation, pre-swap,
//    post-publish) leaves the previous model serving;
//  * crash-atomic model saves never tear the target file, and the checksum
//    trailer catches at-rest corruption;
//  * the retrying client reaches 100% success under 10% socket fault
//    injection, inside its deadline budget.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/fileio.hpp"
#include "common/rng.hpp"
#include "common/socket.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace dfp::serve {
namespace {

TransactionDatabase Db(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.rows = 120;
    spec.classes = 2;
    spec.attributes = 8;
    spec.arity = 3;
    spec.seed = seed;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

std::string TrainModelFile(const TransactionDatabase& db, const std::string& tag) {
    PipelineConfig config;
    config.miner.min_sup_rel = 0.10;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    PatternClassifierPipeline pipeline(config);
    EXPECT_TRUE(
        pipeline.Train(db, std::make_unique<NaiveBayesClassifier>()).ok());
    const std::string path = ::testing::TempDir() + "/dfp_chaos_" + tag + "_" +
                             std::to_string(::getpid()) + ".dfp";
    EXPECT_TRUE(SavePipelineModelToFile(pipeline, path).ok());
    return path;
}

struct Harness {
    explicit Harness(EngineConfig engine_config = {},
                     ServerConfig server_config = {},
                     std::string default_model_path = "")
        : engine(registry, engine_config),
          server(registry, engine, FixPort(server_config),
                 std::move(default_model_path)) {
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

class ChaosTest : public ::testing::Test {
  protected:
    void SetUp() override { FailpointRegistry::Get().DisableAll(); }
    void TearDown() override { FailpointRegistry::Get().DisableAll(); }
};

/// Builds a randomized (but seed-deterministic) fault schedule touching the
/// socket, connection, and scoring layers.
std::string RandomSchedule(std::uint64_t seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    const char* points[] = {
        "serve.socket.write", "serve.socket.read",  "serve.socket.accept",
        "serve.socket.connect", "serve.conn.handle", "serve.engine.score",
    };
    const char* kinds[] = {"error", "short", "eintr", "timeout", "delay(1)"};
    std::ostringstream spec;
    bool first = true;
    for (const char* point : points) {
        if (!rng.Bernoulli(0.6)) continue;  // each point armed 60% of the time
        if (!first) spec << ';';
        first = false;
        const double p = rng.Uniform(0.02, 0.2);
        spec << point << "=prob(" << p << "):"
             << kinds[rng.UniformInt(std::uint64_t{5})];
    }
    if (first) spec << "serve.socket.write=prob(0.1):error";  // never empty
    return spec.str();
}

TEST_F(ChaosTest, RandomizedFaultSchedulesAcrossSeeds) {
    const auto db = Db(21);
    const std::string model_path = TrainModelFile(db, "sweep");
    // Offline ground truth for bit-identity checks.
    auto offline = LoadPipelineModelFromFile(model_path);
    ASSERT_TRUE(offline.ok()) << offline.status();

    constexpr int kSeeds = 24;
    constexpr std::size_t kRequestsPerSeed = 40;
    std::size_t total_ok = 0;
    std::size_t total_failed = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        // The server must come up clean: arm the schedule only after the
        // model is installed and the listener is live (startup chaos is
        // covered by the reload/connect tests).
        EngineConfig engine_config;
        engine_config.max_delay_ms = 0.0;
        Harness harness(engine_config, {}, model_path);
        ASSERT_TRUE(harness.registry.Reload(model_path).ok());

        const std::string spec = RandomSchedule(seed);
        ASSERT_TRUE(FailpointRegistry::Get().Configure(spec, seed).ok())
            << spec;

        RetryPolicy retry;
        retry.max_attempts = 6;
        retry.initial_backoff_ms = 0.5;
        retry.max_backoff_ms = 10.0;
        retry.deadline_ms = 5000.0;
        retry.jitter_seed = seed;
        auto client = ServeClient::Connect("127.0.0.1", harness.server.port(),
                                           retry);
        if (!client.ok()) {
            // Injected connect faults can exhaust even the retry budget;
            // that is a clean failure, not a broken invariant.
            ++total_failed;
            FailpointRegistry::Get().DisableAll();
            continue;
        }
        for (std::size_t t = 0; t < kRequestsPerSeed; ++t) {
            const auto& txn = db.transaction(t % db.num_transactions());
            auto prediction = client->Predict(txn, /*deadline_ms=*/2000.0);
            if (prediction.ok()) {
                // Faults may fail a request; they must never corrupt one.
                EXPECT_EQ(prediction->label, offline->Predict(txn))
                    << "seed " << seed << " request " << t;
                ++total_ok;
            } else {
                ++total_failed;
            }
        }

        // Disarm and prove the server survived the storm: a clean client
        // must get a clean, correct answer.
        FailpointRegistry::Get().DisableAll();
        auto survivor =
            ServeClient::Connect("127.0.0.1", harness.server.port());
        ASSERT_TRUE(survivor.ok())
            << "seed " << seed << ": server died under chaos: "
            << survivor.status();
        auto after = survivor->Predict(db.transaction(0));
        ASSERT_TRUE(after.ok())
            << "seed " << seed << ": " << after.status();
        EXPECT_EQ(after->label, offline->Predict(db.transaction(0)));
    }
    // The retry client should ride through the vast majority of faults.
    EXPECT_GT(total_ok, static_cast<std::size_t>(kSeeds) * kRequestsPerSeed / 2)
        << "ok=" << total_ok << " failed=" << total_failed;
    std::remove(model_path.c_str());
}

TEST_F(ChaosTest, RetryClientReachesFullSuccessUnderSocketFaults) {
    obs::Registry::Get().ResetValues();
    const auto db = Db(22);
    const std::string model_path = TrainModelFile(db, "retry");
    auto offline = LoadPipelineModelFromFile(model_path);
    ASSERT_TRUE(offline.ok());

    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config, {}, model_path);
    ASSERT_TRUE(harness.registry.Reload(model_path).ok());

    RetryPolicy retry;
    retry.max_attempts = 10;
    retry.initial_backoff_ms = 0.5;
    retry.max_backoff_ms = 10.0;
    retry.deadline_ms = 4000.0;
    retry.jitter_seed = 7;
    auto client = ServeClient::Connect("127.0.0.1", harness.server.port(), retry);
    ASSERT_TRUE(client.ok());
    // Transient socket faults only (the acceptance bar): 10% on both
    // directions of every socket op, plus connect failures on re-dial.
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Configure("serve.socket.write=prob(0.1):error;"
                               "serve.socket.read=prob(0.1):timeout;"
                               "serve.socket.connect=prob(0.1):error",
                               /*seed=*/3)
                    .ok());

    constexpr std::size_t kRequests = 200;
    double worst_ms = 0.0;
    std::vector<double> latencies_ms;
    latencies_ms.reserve(kRequests);
    for (std::size_t t = 0; t < kRequests; ++t) {
        const auto& txn = db.transaction(t % db.num_transactions());
        const auto start = std::chrono::steady_clock::now();
        auto prediction = client->Predict(txn, /*deadline_ms=*/2000.0);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        latencies_ms.push_back(ms);
        worst_ms = std::max(worst_ms, ms);
        ASSERT_TRUE(prediction.ok())
            << "request " << t << " failed despite retries: "
            << prediction.status();
        EXPECT_EQ(prediction->label, offline->Predict(txn));
    }
    FailpointRegistry::Get().DisableAll();

    // p99 stays inside the per-call retry deadline budget.
    std::sort(latencies_ms.begin(), latencies_ms.end());
    const double p99 = latencies_ms[latencies_ms.size() * 99 / 100];
    EXPECT_LE(p99, retry.deadline_ms) << "worst " << worst_ms << " ms";

    // The schedule actually fired, and retries actually happened.
    auto& metrics = obs::Registry::Get();
    EXPECT_GT(FailpointRegistry::Get().TotalTrips(), 0u);
    EXPECT_GT(metrics.GetCounter("dfp.serve.client.retries").value(), 0u);
    EXPECT_GT(metrics.GetCounter("dfp.serve.client.retry_success").value(), 0u);
    EXPECT_EQ(metrics.GetCounter("dfp.serve.client.retry_exhausted").value(), 0u);
    std::remove(model_path.c_str());
}

TEST_F(ChaosTest, ReloadFailureAtEveryStageLeavesPreviousModelServing) {
    obs::Registry::Get().ResetValues();
    const auto db = Db(23);
    const std::string model_path = TrainModelFile(db, "stages");

    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config, {}, model_path);
    ASSERT_TRUE(harness.registry.Reload(model_path).ok());
    const std::uint64_t v1 = harness.registry.current_version();
    ASSERT_NE(v1, 0u);
    const ServablePtr before = harness.registry.Snapshot();

    auto client = ServeClient::Connect("127.0.0.1", harness.server.port());
    ASSERT_TRUE(client.ok());

    const char* stages[] = {
        "core.model_io.load",       // torn read of the bundle
        "serve.registry.validate",  // validation rejects the parsed model
        "serve.registry.swap",      // failure just before the commit point
        "serve.registry.publish",   // post-publish verification -> rollback
    };
    for (const char* stage : stages) {
        ASSERT_TRUE(FailpointRegistry::Get()
                        .Configure(std::string(stage) + "=always:error", 1)
                        .ok());
        auto reloaded = client->Reload(model_path);
        EXPECT_FALSE(reloaded.ok()) << stage << " did not fail";
        FailpointRegistry::Get().DisableAll();

        // Invariant: the previous version keeps serving, with the identical
        // snapshot object (no torn/half-swapped state).
        EXPECT_EQ(harness.registry.current_version(), v1) << stage;
        EXPECT_EQ(harness.registry.Snapshot().get(), before.get()) << stage;
        auto prediction = client->Predict(db.transaction(0));
        ASSERT_TRUE(prediction.ok()) << stage << ": " << prediction.status();
        EXPECT_EQ(prediction->model_version, v1) << stage;
    }
    // The post-publish stage rolled back (not merely failed).
    EXPECT_EQ(
        obs::Registry::Get().GetCounter("dfp.serve.reload_rollbacks").value(),
        1u);
    EXPECT_EQ(obs::Registry::Get().GetCounter("dfp.serve.reload_failures").value(),
              4u);

    // With chaos off, the same reload succeeds and bumps the version.
    auto healed = client->Reload(model_path);
    ASSERT_TRUE(healed.ok()) << healed.status();
    EXPECT_GT(*healed, v1);
    std::remove(model_path.c_str());
}

TEST_F(ChaosTest, TornModelLoadIsRejectedByChecksum) {
    const auto db = Db(24);
    const std::string model_path = TrainModelFile(db, "torn");
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Configure("core.model_io.load=always:short", 1)
                    .ok());
    auto torn = LoadPipelineModelFromFile(model_path);
    ASSERT_FALSE(torn.ok());
    FailpointRegistry::Get().DisableAll();
    auto intact = LoadPipelineModelFromFile(model_path);
    EXPECT_TRUE(intact.ok()) << intact.status();
    std::remove(model_path.c_str());
}

TEST_F(ChaosTest, ChecksumTrailerCatchesAtRestCorruption) {
    const auto db = Db(25);
    const std::string model_path = TrainModelFile(db, "bitrot");
    std::string bundle;
    ASSERT_TRUE(ReadFileToString(model_path, &bundle).ok());
    ASSERT_NE(bundle.find("checksum fnv1a64 "), std::string::npos)
        << "file saves must carry the checksum trailer";

    // Flip one payload byte: the parse may or may not notice, the checksum
    // must.
    std::string corrupt = bundle;
    corrupt[bundle.size() / 3] ^= 0x20;
    ASSERT_TRUE(WriteFileAtomic(model_path, corrupt).ok());
    auto flipped = LoadPipelineModelFromFile(model_path);
    ASSERT_FALSE(flipped.ok());
    EXPECT_EQ(flipped.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(flipped.status().ToString().find("checksum"), std::string::npos)
        << flipped.status();

    // Truncation (simulated partial copy) is caught too.
    ASSERT_TRUE(
        WriteFileAtomic(model_path, bundle.substr(0, bundle.size() / 2)).ok());
    EXPECT_FALSE(LoadPipelineModelFromFile(model_path).ok());

    // Legacy bundles without a trailer still load (forward compatibility for
    // files written before the trailer existed).
    const std::size_t trailer = bundle.rfind("checksum fnv1a64 ");
    ASSERT_TRUE(WriteFileAtomic(model_path, bundle.substr(0, trailer)).ok());
    auto legacy = LoadPipelineModelFromFile(model_path);
    EXPECT_TRUE(legacy.ok()) << legacy.status();
    std::remove(model_path.c_str());
}

TEST_F(ChaosTest, SocketLayerSurvivesInjectedEintr) {
    // EINTR on every other read/write syscall: all bytes still arrive, in
    // order, with no duplicates — the retry loops must be airtight.
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Configure("serve.socket.write=every(2):eintr;"
                               "serve.socket.read=every(2):eintr",
                               1)
                    .ok());
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Socket writer(fds[0]);
    Socket reader_socket(fds[1]);
    std::string sent;
    for (int i = 0; i < 50; ++i) {
        const std::string line = "line-" + std::to_string(i) + "\n";
        ASSERT_TRUE(writer.SendAll(line).ok());
        sent += line;
    }
    writer.Close();
    LineReader reader(reader_socket);
    std::string line;
    for (int i = 0; i < 50; ++i) {
        auto got = reader.ReadLine(&line);
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_TRUE(*got) << "premature EOF at line " << i;
        EXPECT_EQ(line, "line-" + std::to_string(i));
    }
    auto eof = reader.ReadLine(&line);
    ASSERT_TRUE(eof.ok());
    EXPECT_FALSE(*eof);
    FailpointRegistry::Get().DisableAll();
}

// Reads one '\n'-terminated line with raw recv(), bypassing Socket::Recv so
// an armed serve.socket.read failpoint only ever hits the client under test.
std::string RawReadLine(int fd) {
    std::string line;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line.push_back(c);
    return line;
}

void RawSend(int fd, const std::string& data) {
    (void)::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
}

// The id a client stamped on `request` (0 when it carries none).
std::uint64_t RequestId(const std::string& request) {
    auto parsed = obs::ParseJson(request);
    const obs::JsonValue* id = parsed.ok() ? parsed->Find("id") : nullptr;
    return id != nullptr && id->is_number()
               ? static_cast<std::uint64_t>(id->number())
               : 0;
}

// A scripted predict reply echoing `id`, as the real server does.
std::string Reply(int label, int version, std::uint64_t id) {
    return "{\"ok\":true,\"label\":" + std::to_string(label) +
           ",\"version\":" + std::to_string(version) +
           ",\"id\":" + std::to_string(id) + "}\n";
}

// Regression for the client's connection state: a non-retrying call whose
// read times out must drop its connection. Otherwise the reply to that
// request, arriving late, is read as the answer to the next one. A scripted
// server answers request 1 only after the client has given up on it, and
// answers anything on a second connection with a different label/version.
TEST_F(ChaosTest, LateReplyAfterReadTimeoutNeverAnswersNextRequest) {
    auto listener = TcpListen(0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    auto port = LocalPort(*listener);
    ASSERT_TRUE(port.ok()) << port.status();

    std::promise<void> first_call_failed;
    std::thread server([&listener, gave_up = first_call_failed.get_future()] {
        auto first = TcpAccept(*listener);
        if (!first.ok()) return;
        const std::uint64_t late_id = RequestId(RawReadLine(first->fd()));
        gave_up.wait();  // the reply is now past the client's read deadline
        RawSend(first->fd(), Reply(0, 1, late_id));
        auto second = TcpAccept(*listener);  // only a redialing client gets here
        if (!second.ok()) return;
        RawSend(second->fd(), Reply(1, 2, RequestId(RawReadLine(second->fd()))));
    });

    auto client = ServeClient::Connect("127.0.0.1", *port);  // max_attempts 1
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Configure("serve.socket.read=nth(1):timeout", 1)
                    .ok());
    auto timed_out = client->Predict({1});
    EXPECT_FALSE(timed_out.ok());
    EXPECT_EQ(timed_out.status().code(), StatusCode::kUnavailable);
    first_call_failed.set_value();

    auto next = client->Predict({2});
    listener->ShutdownBoth();  // unblocks the script if the client never redials
    server.join();
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(next->label, 1u) << "read the late reply to the previous request";
    EXPECT_EQ(next->model_version, 2u);
}

// Regression for request ids: a reply carrying another request's id fails
// the call it arrived on, as a transport failure, and the next call redials
// and gets its own answer. The scripted first connection answers request 1
// with a wrong id and then with the right one; a client that ignored ids
// would return label 7, and one that kept the connection would read the
// second line as the answer to request 2.
TEST_F(ChaosTest, WrongIdReplyFailsThatCallAndNextCallGetsItsOwnAnswer) {
    auto listener = TcpListen(0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    auto port = LocalPort(*listener);
    ASSERT_TRUE(port.ok()) << port.status();

    std::uint64_t first_id = 0;
    std::uint64_t second_id = 0;
    std::thread server([&] {
        auto first = TcpAccept(*listener);
        if (!first.ok()) return;
        first_id = RequestId(RawReadLine(first->fd()));
        RawSend(first->fd(), Reply(7, 1, first_id + 100) + Reply(0, 1, first_id));
        auto second = TcpAccept(*listener);  // only a redialing client gets here
        if (!second.ok()) return;
        second_id = RequestId(RawReadLine(second->fd()));
        RawSend(second->fd(), Reply(1, 2, second_id));
    });

    auto client = ServeClient::Connect("127.0.0.1", *port);  // max_attempts 1
    ASSERT_TRUE(client.ok()) << client.status();
    auto mismatched = client->Predict({1});
    auto next = client->Predict({2});
    listener->ShutdownBoth();  // unblocks the script if the client never redials
    server.join();

    ASSERT_FALSE(mismatched.ok()) << "accepted the reply to another request";
    EXPECT_EQ(mismatched.status().code(), StatusCode::kUnavailable);
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(next->label, 1u);
    EXPECT_EQ(next->model_version, 2u);
    EXPECT_GT(first_id, 0u) << "request carried no id";
    EXPECT_GT(second_id, first_id) << "ids must increase";
}

TEST_F(ChaosTest, AcceptLoopSurvivesInjectedAcceptFaults) {
    obs::Registry::Get().ResetValues();
    const auto db = Db(26);
    const std::string model_path = TrainModelFile(db, "accept");
    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config, {}, model_path);
    ASSERT_TRUE(harness.registry.Reload(model_path).ok());

    // Every second accept fails. A naive accept loop would exit on the first
    // injected error and the server would go dark.
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Configure("serve.socket.accept=every(2):error", 1)
                    .ok());
    std::size_t connected = 0;
    for (int i = 0; i < 8; ++i) {
        RetryPolicy retry;
        retry.max_attempts = 4;
        retry.initial_backoff_ms = 0.5;
        retry.max_backoff_ms = 5.0;
        auto client =
            ServeClient::Connect("127.0.0.1", harness.server.port(), retry);
        if (!client.ok()) continue;
        if (client->Predict(db.transaction(0)).ok()) ++connected;
    }
    FailpointRegistry::Get().DisableAll();
    EXPECT_GT(connected, 0u) << "no connection ever made it through";
    EXPECT_GT(obs::Registry::Get().GetCounter("dfp.serve.accept_errors").value(),
              0u);
    // And with chaos off, the listener is fully healthy.
    auto after = ServeClient::Connect("127.0.0.1", harness.server.port());
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_TRUE(after->Predict(db.transaction(0)).ok());
    std::remove(model_path.c_str());
}

TEST_F(ChaosTest, ReadyVerbAndHealthzTrackModelAndDrain) {
    const auto db = Db(27);
    const std::string model_path = TrainModelFile(db, "ready");
    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    ServerConfig server_config;
    server_config.metrics_port = 0;  // ephemeral /healthz side-port
    auto harness =
        std::make_unique<Harness>(engine_config, server_config, model_path);

    auto probe_healthz = [&]() -> std::string {
        auto sock = TcpConnect("127.0.0.1", harness->server.metrics_port());
        EXPECT_TRUE(sock.ok()) << sock.status();
        EXPECT_TRUE(
            sock->SendAll("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").ok());
        LineReader reader(*sock);
        std::string status_line;
        auto got = reader.ReadLine(&status_line);
        EXPECT_TRUE(got.ok() && *got);
        return status_line;
    };

    ServeClient client(harness->server.dispatcher());
    // No model yet: not ready, 503.
    auto ready = client.Ready();
    ASSERT_TRUE(ready.ok()) << ready.status();
    EXPECT_FALSE(*ready);
    EXPECT_NE(probe_healthz().find("503"), std::string::npos);

    // Model installed: ready, 200.
    ASSERT_TRUE(harness->registry.Reload(model_path).ok());
    ready = client.Ready();
    ASSERT_TRUE(ready.ok());
    EXPECT_TRUE(*ready);
    EXPECT_NE(probe_healthz().find("200"), std::string::npos);

    // Draining: not ready again (load balancers stop routing before drain).
    harness->server.dispatcher().SetDraining(true);
    ready = client.Ready();
    ASSERT_TRUE(ready.ok());
    EXPECT_FALSE(*ready);
    EXPECT_NE(probe_healthz().find("503"), std::string::npos);
    harness->server.dispatcher().SetDraining(false);

    harness.reset();
    std::remove(model_path.c_str());
}

TEST_F(ChaosTest, ScoringFaultFailsOneRequestNotTheServer) {
    obs::Registry::Get().ResetValues();
    const auto db = Db(28);
    const std::string model_path = TrainModelFile(db, "score");
    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config, {}, model_path);
    ASSERT_TRUE(harness.registry.Reload(model_path).ok());
    auto client = ServeClient::Connect("127.0.0.1", harness.server.port());
    ASSERT_TRUE(client.ok());

    // Allocation failure inside scoring: the worker must catch it and fail
    // that request alone, not unwind through the batch loop.
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Configure("serve.engine.score=nth(2):alloc", 1)
                    .ok());
    std::size_t failures = 0;
    for (int i = 0; i < 4; ++i) {
        auto prediction = client->Predict(db.transaction(0));
        if (!prediction.ok()) {
            ++failures;
            EXPECT_EQ(prediction.status().code(),
                      StatusCode::kResourceExhausted);
        }
    }
    FailpointRegistry::Get().DisableAll();
    EXPECT_EQ(failures, 1u);
    EXPECT_EQ(obs::Registry::Get().GetCounter("dfp.serve.score_errors").value(),
              1u);
    // Server is intact.
    EXPECT_TRUE(client->Predict(db.transaction(1)).ok());
    std::remove(model_path.c_str());
}

}  // namespace
}  // namespace dfp::serve
