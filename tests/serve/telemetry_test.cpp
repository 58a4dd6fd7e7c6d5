// Live serving telemetry (DESIGN.md §14): cross-thread request traces carry
// monotone stage timestamps through the engine; per-stage windowed latency
// histograms are registered and populated; the protocol {"op":"metrics"} verb
// and the HTTP side-port GET /metrics return byte-identical Prometheus
// payloads; trace_dump round-trips as valid Chrome trace-event JSON; sheds
// are traced with a kUnavailable outcome.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
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

LoadedModel TrainModel(const TransactionDatabase& db) {
    PipelineConfig config;
    config.miner.min_sup_rel = 0.10;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    PatternClassifierPipeline pipeline(config);
    EXPECT_TRUE(
        pipeline.Train(db, std::make_unique<NaiveBayesClassifier>()).ok());
    std::stringstream stream;
    EXPECT_TRUE(SavePipelineModel(pipeline, stream).ok());
    auto loaded = LoadPipelineModel(stream);
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    return std::move(*loaded);
}

EngineConfig ManualConfig() {
    EngineConfig config;
    config.manual_pump = true;
    config.max_batch = 4;
    config.queue_capacity = 8;
    return config;
}

class TelemetryTest : public ::testing::Test {
  protected:
    void SetUp() override {
        obs::Registry::Get().ResetValues();
        db_ = std::make_unique<TransactionDatabase>(Db(91));
        registry_.Install(TrainModel(*db_));
    }

    std::unique_ptr<TransactionDatabase> db_;
    ModelRegistry registry_;
};

TEST_F(TelemetryTest, TraceStagesAreMonotoneAcrossThreadHops) {
    ScoringEngine engine(registry_, ManualConfig());
    obs::RequestTrace trace;
    auto future = engine.Submit(db_->transaction(0), /*deadline_ms=*/-1.0,
                                /*cancel=*/nullptr, &trace);
    EXPECT_EQ(engine.PumpOnce(), 1u);
    ASSERT_TRUE(future.get().ok());
    trace.serialize_start_us = obs::NowMicros();
    trace.serialize_end_us = obs::NowMicros();
    engine.CommitTrace(trace);

    EXPECT_GT(trace.id, 0u);
    EXPECT_GT(trace.submit_us, 0.0);
    EXPECT_GE(trace.dequeue_us, trace.submit_us);
    EXPECT_GE(trace.score_start_us, trace.dequeue_us);
    EXPECT_GE(trace.score_end_us, trace.score_start_us);
    EXPECT_GE(trace.serialize_end_us, trace.serialize_start_us);
    EXPECT_EQ(trace.batch_size, 1u);
    EXPECT_EQ(trace.outcome, 0u);  // kOk
    EXPECT_NE(trace.submit_tid, 0u);
    EXPECT_NE(trace.score_tid, 0u);

    // The committed trace is in the ring.
    const auto dumped = engine.trace_ring().Dump();
    ASSERT_EQ(dumped.size(), 1u);
    EXPECT_EQ(dumped.front().id, trace.id);
    engine.Stop();
}

TEST_F(TelemetryTest, InternalTracesCommitThemselves) {
    ScoringEngine engine(registry_, ManualConfig());
    auto f1 = engine.Submit(db_->transaction(0));
    auto f2 = engine.Submit(db_->transaction(1));
    engine.PumpOnce();
    EXPECT_TRUE(f1.get().ok());
    EXPECT_TRUE(f2.get().ok());
    const auto dumped = engine.trace_ring().Dump();
    ASSERT_EQ(dumped.size(), 2u);
    for (const auto& trace : dumped) {
        EXPECT_EQ(trace.batch_size, 2u);
        EXPECT_EQ(trace.outcome, 0u);
    }
    engine.Stop();
}

TEST_F(TelemetryTest, ShedRequestsAreTracedWithUnavailableOutcome) {
    ScoringEngine engine(registry_, ManualConfig());  // capacity 8
    std::vector<std::future<Result<Prediction>>> admitted;
    for (std::size_t t = 0; t < 8; ++t) {
        admitted.push_back(engine.Submit(db_->transaction(t)));
    }
    auto shed = engine.Submit(db_->transaction(8));
    EXPECT_EQ(shed.get().status().code(), StatusCode::kUnavailable);
    const auto dumped = engine.trace_ring().Dump();
    ASSERT_EQ(dumped.size(), 1u);  // only the shed one is committed so far
    EXPECT_EQ(dumped.front().outcome,
              static_cast<std::uint16_t>(StatusCode::kUnavailable));
    while (engine.PumpOnce() > 0) {
    }
    for (auto& f : admitted) EXPECT_TRUE(f.get().ok());
    engine.Stop();
}

TEST_F(TelemetryTest, StageLatencyWindowsArePopulated) {
    ScoringEngine engine(registry_, ManualConfig());
    std::vector<std::future<Result<Prediction>>> futures;
    for (std::size_t t = 0; t < 6; ++t) {
        futures.push_back(engine.Submit(db_->transaction(t)));
    }
    while (engine.PumpOnce() > 0) {
    }
    for (auto& f : futures) EXPECT_TRUE(f.get().ok());

    const auto snap = obs::Registry::Get().Snapshot();
    for (const char* name :
         {"dfp.serve.latency.total", "dfp.serve.latency.queue",
          "dfp.serve.latency.batch_wait", "dfp.serve.latency.score"}) {
        const auto it = snap.windows.find(name);
        ASSERT_NE(it, snap.windows.end()) << name;
        EXPECT_EQ(it->second.count, 6u) << name;
    }
    // The total window is the one total-latency series: no fixed-bucket
    // duplicate is registered beside it.
    EXPECT_EQ(snap.histograms.count("dfp.serve.latency_ms"), 0u);
    engine.Stop();
}

TEST_F(TelemetryTest, MetricsOpAndHttpPortServeIdenticalPayloads) {
    EngineConfig engine_config;  // real batcher: the server path needs one
    engine_config.max_delay_ms = 0.0;
    ScoringEngine engine(registry_, engine_config);
    ServerConfig server_config;
    server_config.port = 0;
    server_config.metrics_port = 0;
    PredictionServer server(registry_, engine, server_config);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_NE(server.metrics_port(), 0);

    auto client = ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->Predict(db_->transaction(0)).ok());

    // Freeze the registry between the two reads: no serve traffic in
    // between, and both reads happen back to back. Byte-identical is the
    // contract (same pure renderer over the same snapshot source).
    auto via_op = client->Metrics();
    ASSERT_TRUE(via_op.ok()) << via_op.status();

    auto http = TcpConnect("127.0.0.1", server.metrics_port());
    ASSERT_TRUE(http.ok());
    ASSERT_TRUE(http->SendAll("GET /metrics HTTP/1.1\r\n\r\n").ok());
    std::string response;
    char chunk[65536];
    for (;;) {
        auto n = http->Recv(chunk, sizeof(chunk));
        if (!n.ok() || *n == 0) break;
        response.append(chunk, *n);
    }
    const std::size_t body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const std::string body = response.substr(body_at + 4);
    EXPECT_EQ(body, *via_op);
    EXPECT_NE(body.find("dfp_serve_requests"), std::string::npos);

    server.Stop();
    engine.Stop();
}

TEST_F(TelemetryTest, TraceDumpOpReturnsChromeTraceJson) {
    EngineConfig engine_config;
    engine_config.max_delay_ms = 0.0;
    ScoringEngine engine(registry_, engine_config);
    ServerConfig server_config;
    server_config.port = 0;
    PredictionServer server(registry_, engine, server_config);
    ASSERT_TRUE(server.Start().ok());

    auto client = ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(client->Predict(db_->transaction(i)).ok());
    }
    auto dump = client->TraceDump();
    ASSERT_TRUE(dump.ok()) << dump.status();
    const obs::JsonValue* events = dump->Find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    // 3 requests x 4 stages (predict goes through the dispatcher, so
    // serialize is stamped too).
    EXPECT_EQ(events->array().size(), 12u);

    server.Stop();
    engine.Stop();
}

}  // namespace
}  // namespace dfp::serve
