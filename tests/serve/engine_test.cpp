// ScoringEngine unit tests: admission control (bounded queue + shedding),
// deadline/cancel handling via the budget primitives, graceful drain, and the
// dfp.serve.* metrics contract. Uses the manual_pump seam so batching is
// fully deterministic — no timing assumptions.
#include <gtest/gtest.h>

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
#include "serve/engine.hpp"
#include "serve/registry.hpp"

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

class ScoringEngineTest : public ::testing::Test {
  protected:
    void SetUp() override {
        obs::Registry::Get().ResetValues();
        db_ = std::make_unique<TransactionDatabase>(Db(77));
        registry_.Install(TrainModel(*db_));
    }

    double Counter(const std::string& name) {
        return static_cast<double>(obs::Registry::Get().GetCounter(name).value());
    }

    std::unique_ptr<TransactionDatabase> db_;
    ModelRegistry registry_;
};

TEST_F(ScoringEngineTest, MicroBatchesRespectMaxBatch) {
    ScoringEngine engine(registry_, ManualConfig());
    std::vector<std::future<Result<Prediction>>> futures;
    for (std::size_t t = 0; t < 6; ++t) {
        futures.push_back(engine.Submit(db_->transaction(t)));
    }
    EXPECT_EQ(engine.queue_depth(), 6u);
    EXPECT_EQ(engine.PumpOnce(), 4u);  // capped at max_batch
    EXPECT_EQ(engine.queue_depth(), 2u);
    EXPECT_EQ(engine.PumpOnce(), 2u);
    EXPECT_EQ(engine.PumpOnce(), 0u);  // empty queue
    for (auto& f : futures) EXPECT_TRUE(f.get().ok());
    EXPECT_EQ(Counter("dfp.serve.predictions"), 6.0);
    EXPECT_EQ(Counter("dfp.serve.batches"), 2.0);
}

TEST_F(ScoringEngineTest, ShedsWhenQueueFull) {
    ScoringEngine engine(registry_, ManualConfig());  // capacity 8
    std::vector<std::future<Result<Prediction>>> admitted;
    for (std::size_t t = 0; t < 8; ++t) {
        admitted.push_back(engine.Submit(db_->transaction(t)));
    }
    auto shed = engine.Submit(db_->transaction(8));
    auto result = shed.get();  // resolved immediately, without a pump
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(Counter("dfp.serve.shed"), 1.0);

    // The admitted 8 are unaffected.
    while (engine.PumpOnce() > 0) {
    }
    for (auto& f : admitted) EXPECT_TRUE(f.get().ok());
}

TEST_F(ScoringEngineTest, ExpiredDeadlineAnsweredWithoutScoring) {
    ScoringEngine engine(registry_, ManualConfig());
    // A deadline that has effectively already passed when the pump runs.
    auto doomed = engine.Submit(db_->transaction(0), /*deadline_ms=*/0.0);
    auto fine = engine.Submit(db_->transaction(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    engine.PumpOnce();

    auto doomed_result = doomed.get();
    ASSERT_FALSE(doomed_result.ok());
    EXPECT_EQ(doomed_result.status().code(), StatusCode::kCancelled);
    EXPECT_TRUE(fine.get().ok());
    EXPECT_EQ(Counter("dfp.serve.deadline_expired"), 1.0);
    EXPECT_EQ(Counter("dfp.serve.predictions"), 1.0);
}

TEST_F(ScoringEngineTest, CancelTokenHonoured) {
    ScoringEngine engine(registry_, ManualConfig());
    CancelToken cancel;
    auto cancelled = engine.Submit(db_->transaction(0), -1.0, &cancel);
    auto fine = engine.Submit(db_->transaction(1));
    cancel.Cancel();
    engine.PumpOnce();

    auto cancelled_result = cancelled.get();
    ASSERT_FALSE(cancelled_result.ok());
    EXPECT_EQ(cancelled_result.status().code(), StatusCode::kCancelled);
    EXPECT_TRUE(fine.get().ok());
    EXPECT_EQ(Counter("dfp.serve.cancelled"), 1.0);
}

TEST_F(ScoringEngineTest, NoModelIsFailedPrecondition) {
    ModelRegistry empty;
    ScoringEngine engine(empty, ManualConfig());
    auto future = engine.Submit({1, 2, 3});
    engine.PumpOnce();
    auto result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(Counter("dfp.serve.no_model"), 1.0);

    auto batch = engine.PredictBatch({{1, 2}});
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ScoringEngineTest, StopDrainsEverythingAdmitted) {
    auto engine = std::make_unique<ScoringEngine>(registry_, ManualConfig());
    std::vector<std::future<Result<Prediction>>> futures;
    for (std::size_t t = 0; t < 7; ++t) {
        futures.push_back(engine->Submit(db_->transaction(t)));
    }
    engine->Stop();  // drains the queue before returning
    for (auto& f : futures) {
        auto result = f.get();
        ASSERT_TRUE(result.ok()) << result.status();
    }
    // Post-stop submissions shed with kUnavailable.
    auto late = engine->Submit(db_->transaction(0));
    auto late_result = late.get();
    ASSERT_FALSE(late_result.ok());
    EXPECT_EQ(late_result.status().code(), StatusCode::kUnavailable);
    EXPECT_TRUE(engine->stopped());
}

TEST_F(ScoringEngineTest, BackgroundBatcherServesWithDelayWindow) {
    // Non-manual mode: the batcher thread picks requests up on its own.
    EngineConfig config;
    config.max_batch = 16;
    config.max_delay_ms = 1.0;
    ScoringEngine engine(registry_, config);
    std::vector<std::future<Result<Prediction>>> futures;
    for (std::size_t t = 0; t < 32; ++t) {
        futures.push_back(engine.Submit(db_->transaction(t)));
    }
    for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

TEST_F(ScoringEngineTest, TelemetryGeometryIsFixed) {
    // The last 4096 traces, and latency windows of 8 epochs x 1.25 s.
    ScoringEngine engine(registry_, ManualConfig());
    EXPECT_EQ(engine.trace_ring().capacity(), 4096u);
    for (const char* stage : {"total", "queue", "batch_wait", "score", "serialize"}) {
        const obs::WindowedHdrHistogram& window =
            obs::Registry::Get().GetWindowedHdr(std::string("dfp.serve.latency.") + stage);
        EXPECT_EQ(window.epochs(), 8u) << stage;
        EXPECT_DOUBLE_EQ(window.epoch_seconds(), 1.25) << stage;
    }
}

TEST_F(ScoringEngineTest, DefaultDeadlineApplied) {
    EngineConfig config = ManualConfig();
    config.default_deadline_ms = 0.0;  // everything expires immediately
    ScoringEngine engine(registry_, config);
    auto future = engine.Submit(db_->transaction(0));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    engine.PumpOnce();
    auto result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace dfp::serve
