// PredictionServer + protocol tests over a real loopback socket (port 0 →
// kernel-assigned, so parallel ctest runs never collide):
//  * protocol golden tests — exact response lines for every op and the error
//    shapes for malformed input;
//  * connection admission (max_connections shed with kUnavailable);
//  * drain-on-shutdown — a request in flight when Stop() lands still gets its
//    response before the connection closes;
//  * ServeClient over both transports agreeing with each other.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace dfp::serve {
namespace {

TransactionDatabase Db(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.rows = 150;
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
    const std::string path = ::testing::TempDir() + "/dfp_server_" + tag + "_" +
                             std::to_string(::getpid()) + ".dfp";
    EXPECT_TRUE(SavePipelineModelToFile(pipeline, path).ok());
    return path;
}

/// Server + engine + registry bundle used by most tests.
struct Harness {
    explicit Harness(EngineConfig engine_config = {}, ServerConfig server_config = {},
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
        config.port = 0;  // always ephemeral in tests
        return config;
    }

    ServeClient Client() {
        auto client = ServeClient::Connect("127.0.0.1", server.port());
        EXPECT_TRUE(client.ok()) << client.status();
        return std::move(*client);
    }

    ModelRegistry registry;
    ScoringEngine engine;
    PredictionServer server;
};

TEST(ProtocolGoldenTest, ResponsesAreExactLines) {
    const auto db = Db(8);
    const std::string model_path = TrainModelFile(db, "golden");
    ModelRegistry registry;
    ASSERT_TRUE(registry.Reload(model_path).ok());
    const ServablePtr snapshot = registry.Snapshot();

    EngineConfig config;
    config.max_delay_ms = 0.0;
    ScoringEngine engine(registry, config);
    RequestDispatcher dispatcher(registry, engine, model_path);

    // predict: exact golden line (label known from the model itself).
    const std::vector<ItemId>& txn = db.transaction(0);
    std::ostringstream request;
    request << "{\"op\":\"predict\",\"id\":7,\"items\":[";
    for (std::size_t i = 0; i < txn.size(); ++i) {
        if (i > 0) request << ',';
        request << txn[i];
    }
    request << "]}";
    const std::string response = dispatcher.HandleLine(request.str());
    std::ostringstream expected_prefix;
    expected_prefix << "{\"ok\":true,\"label\":" << snapshot->model.Predict(txn)
                    << ",\"version\":1,\"latency_ms\":";
    EXPECT_EQ(response.rfind(expected_prefix.str(), 0), 0u) << response;
    EXPECT_NE(response.find(",\"id\":7}"), std::string::npos) << response;

    // health.
    EXPECT_EQ(dispatcher.HandleLine("{\"op\":\"health\"}"),
              "{\"ok\":true,\"serving\":true,\"version\":1,\"draining\":false}");

    // reload (uses the default path) bumps the version.
    EXPECT_EQ(dispatcher.HandleLine("{\"op\":\"reload\"}"),
              "{\"ok\":true,\"version\":2}");

    // stats carries dfp.serve.* counters.
    const std::string stats = dispatcher.HandleLine("{\"op\":\"stats\"}");
    EXPECT_EQ(stats.rfind("{\"ok\":true,\"stats\":", 0), 0u) << stats;
    EXPECT_NE(stats.find("dfp.serve.reloads"), std::string::npos) << stats;

    // Error shapes.
    EXPECT_EQ(dispatcher.HandleLine("this is not json").rfind(
                  "{\"ok\":false,\"error\":", 0),
              0u);
    const std::string unknown_op = dispatcher.HandleLine("{\"op\":\"explode\"}");
    EXPECT_NE(unknown_op.find("\"error\":\"InvalidArgument\""), std::string::npos)
        << unknown_op;
    const std::string bad_item =
        dispatcher.HandleLine("{\"op\":\"predict\",\"items\":[1,-4]}");
    EXPECT_NE(bad_item.find("\"ok\":false"), std::string::npos) << bad_item;
    const std::string no_items = dispatcher.HandleLine("{\"op\":\"predict\"}");
    EXPECT_NE(no_items.find("\"ok\":false"), std::string::npos) << no_items;

    engine.Stop();
    std::remove(model_path.c_str());
}

TEST(PredictionServerTest, ServesOverLoopback) {
    const auto db = Db(9);
    const std::string model_path = TrainModelFile(db, "loopback");
    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config, {}, model_path);
    ASSERT_TRUE(harness.registry.Reload(model_path).ok());
    const ServablePtr snapshot = harness.registry.Snapshot();

    ServeClient client = harness.Client();
    // Single predictions agree with the local model.
    for (std::size_t t = 0; t < 20; ++t) {
        auto prediction = client.Predict(db.transaction(t));
        ASSERT_TRUE(prediction.ok()) << prediction.status();
        EXPECT_EQ(prediction->label, snapshot->model.Predict(db.transaction(t)));
        EXPECT_EQ(prediction->model_version, 1u);
    }
    // Batch too.
    std::vector<std::vector<ItemId>> batch;
    for (std::size_t t = 0; t < 32; ++t) batch.push_back(db.transaction(t));
    auto predictions = client.PredictBatch(batch);
    ASSERT_TRUE(predictions.ok()) << predictions.status();
    ASSERT_EQ(predictions->size(), batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
        EXPECT_EQ((*predictions)[t].label, snapshot->model.Predict(batch[t]));
    }
    // Health, stats, reload round the protocol out.
    auto health = client.Health();
    ASSERT_TRUE(health.ok()) << health.status();
    EXPECT_TRUE(health->Find("serving")->boolean());
    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status();
    auto version = client.Reload();
    ASSERT_TRUE(version.ok()) << version.status();
    EXPECT_EQ(*version, 2u);
    std::remove(model_path.c_str());
}

TEST(PredictionServerTest, InProcessAndTcpClientsAgree) {
    const auto db = Db(10);
    const std::string model_path = TrainModelFile(db, "agree");
    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config, {}, model_path);
    ASSERT_TRUE(harness.registry.Reload(model_path).ok());

    ServeClient tcp = harness.Client();
    ServeClient local(harness.server.dispatcher());
    for (std::size_t t = 0; t < 25; ++t) {
        auto over_tcp = tcp.Predict(db.transaction(t));
        auto in_process = local.Predict(db.transaction(t));
        ASSERT_TRUE(over_tcp.ok());
        ASSERT_TRUE(in_process.ok());
        EXPECT_EQ(over_tcp->label, in_process->label);
    }
    std::remove(model_path.c_str());
}

TEST(PredictionServerTest, RawRoundTripCarriesExactLinesOverTcp) {
    const auto db = Db(11);
    const std::string model_path = TrainModelFile(db, "raw");
    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config, {}, model_path);
    ASSERT_TRUE(harness.registry.Reload(model_path).ok());

    // The line goes out as given (no id is spliced in) and the server's
    // line comes back whole, as the dispatcher renders it in process.
    ServeClient client = harness.Client();
    auto health = client.RoundTrip("{\"op\":\"health\"}");
    ASSERT_TRUE(health.ok()) << health.status();
    EXPECT_EQ(*health,
              "{\"ok\":true,\"serving\":true,\"version\":1,\"draining\":false}");
    auto garbage = client.RoundTrip("this is not json");
    ASSERT_TRUE(garbage.ok()) << garbage.status();
    EXPECT_EQ(garbage->rfind("{\"ok\":false,\"error\":", 0), 0u) << *garbage;
    // The connection stays in step for the next request.
    auto prediction = client.Predict(db.transaction(0));
    ASSERT_TRUE(prediction.ok()) << prediction.status();
    EXPECT_EQ(prediction->label,
              harness.registry.Snapshot()->model.Predict(db.transaction(0)));
    std::remove(model_path.c_str());
}

TEST(PredictionServerTest, PredictWithoutModelIsFailedPrecondition) {
    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config);
    ServeClient client = harness.Client();
    auto prediction = client.Predict({1, 2, 3});
    ASSERT_FALSE(prediction.ok());
    EXPECT_EQ(prediction.status().code(), StatusCode::kFailedPrecondition);
    auto health = client.Health();
    ASSERT_TRUE(health.ok());
    EXPECT_FALSE(health->Find("serving")->boolean());
}

TEST(PredictionServerTest, ShedsConnectionsBeyondLimit) {
    obs::Registry::Get().ResetValues();
    ServerConfig server_config;
    server_config.max_connections = 1;
    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    Harness harness(engine_config, server_config);

    ServeClient first = harness.Client();  // occupies the only slot
    ASSERT_TRUE(first.Health().ok());
    // The next connection is answered with an unsolicited kUnavailable line
    // and closed — read it raw (sending first would race the server's close).
    auto second = TcpConnect("127.0.0.1", harness.server.port());
    ASSERT_TRUE(second.ok()) << second.status();
    LineReader reader(*second);
    std::string line;
    auto got = reader.ReadLine(&line);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(*got);
    EXPECT_NE(line.find("\"error\":\"Unavailable\""), std::string::npos) << line;
    EXPECT_GE(obs::Registry::Get().GetCounter("dfp.serve.connections_shed").value(),
              1u);
}

TEST(PredictionServerTest, DrainOnShutdownFlushesInFlightResponse) {
    const auto db = Db(11);
    const std::string model_path = TrainModelFile(db, "drain");
    // A wide batching window keeps the request parked in the engine queue
    // long enough for Stop() to land while it is in flight.
    EngineConfig engine_config;
    engine_config.max_delay_ms = 150.0;
    engine_config.max_batch = 64;
    auto harness = std::make_unique<Harness>(engine_config, ServerConfig{}, model_path);
    ASSERT_TRUE(harness->registry.Reload(model_path).ok());
    const ServablePtr snapshot = harness->registry.Snapshot();
    const ClassLabel expected = snapshot->model.Predict(db.transaction(0));

    ServeClient client = harness->Client();
    Result<Prediction> prediction = Status::Internal("not yet");
    std::thread requester([&] { prediction = client.Predict(db.transaction(0)); });
    // Let the request reach the engine queue, then pull the plug.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    harness->server.Stop();   // drain: response must still arrive
    harness->engine.Stop();
    requester.join();

    ASSERT_TRUE(prediction.ok()) << prediction.status();
    EXPECT_EQ(prediction->label, expected);

    // After drain the port no longer accepts work.
    auto late = ServeClient::Connect("127.0.0.1", harness->server.port());
    if (late.ok()) {
        EXPECT_FALSE(late->Health().ok());
    }
    harness.reset();
    std::remove(model_path.c_str());
}

TEST(LineReaderTest, SplitsAndStripsLines) {
    // Socketpair gives LineReader a real fd without a server.
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Socket writer(fds[0]);
    Socket reader_socket(fds[1]);
    ASSERT_TRUE(writer.SendAll("alpha\r\nbeta\n\ngamma\n").ok());
    writer.Close();  // EOF after three payload lines + one empty

    LineReader reader(reader_socket);
    std::string line;
    auto got = reader.ReadLine(&line);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(*got);
    EXPECT_EQ(line, "alpha");  // '\r' stripped
    ASSERT_TRUE(*reader.ReadLine(&line));
    EXPECT_EQ(line, "beta");
    ASSERT_TRUE(*reader.ReadLine(&line));
    EXPECT_EQ(line, "");
    ASSERT_TRUE(*reader.ReadLine(&line));
    EXPECT_EQ(line, "gamma");
    got = reader.ReadLine(&line);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(*got);  // clean EOF
}

}  // namespace
}  // namespace dfp::serve
