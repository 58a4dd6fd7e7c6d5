// Serving equivalence certificates (ISSUE 5 acceptance):
//
//  * PatternMatchIndex::EncodeInto, the serving index a ServableModel scores
//    through, is bit-identical to the subset-scan reference encoder
//    (testutil/reference_encoder) on 20 seeded synthetic databases.
//  * ScoringEngine predictions are bit-identical to LoadedModel::Predict at
//    batch sizes {1, 7, 64} and thread counts {1, 8} — batching and
//    parallelism are pure scheduling, never numerics.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "ml/svm/svm.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "serve/scoring_index.hpp"
#include "testutil/reference_encoder.hpp"

namespace dfp::serve {
namespace {

TransactionDatabase Db(std::uint64_t seed, std::size_t rows = 200) {
    SyntheticSpec spec;
    spec.rows = rows;
    spec.classes = 2;
    spec.attributes = 8;
    spec.arity = 3;
    spec.seed = seed;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

template <typename LearnerT>
LoadedModel TrainModel(const TransactionDatabase& db) {
    PipelineConfig config;
    config.miner.min_sup_rel = 0.10;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    PatternClassifierPipeline pipeline(config);
    EXPECT_TRUE(pipeline.Train(db, std::make_unique<LearnerT>()).ok());
    std::stringstream stream;
    EXPECT_TRUE(SavePipelineModel(pipeline, stream).ok());
    auto loaded = LoadPipelineModel(stream);
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    return std::move(*loaded);
}

TEST(PatternMatchIndexTest, EncodesBitIdenticallyOn20SeededDbs) {
    for (std::uint64_t seed = 100; seed < 120; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto db = Db(seed, 120);
        LoadedModel model = TrainModel<NaiveBayesClassifier>(db);
        const FeatureSpace& space = model.feature_space();
        const PatternMatchIndex& index = space.matcher();
        ASSERT_EQ(index.dim(), space.dim());

        PatternMatchIndex::Scratch scratch;
        for (std::size_t t = 0; t < db.num_transactions(); ++t) {
            index.EncodeInto(db.transaction(t), &scratch);
            ASSERT_EQ(scratch.encoded,
                      testutil::ScanEncode(space, db.transaction(t)))
                << "row " << t;
        }
    }
}

TEST(PatternMatchIndexTest, HandlesEdgeTransactions) {
    const auto db = Db(7);
    LoadedModel model = TrainModel<NaiveBayesClassifier>(db);
    const FeatureSpace& space = model.feature_space();
    const PatternMatchIndex& index = space.matcher();
    PatternMatchIndex::Scratch scratch;

    const std::vector<std::vector<ItemId>> edges = {
        {},                                           // empty transaction
        {0},                                          // single item
        {static_cast<ItemId>(space.num_items())},     // item beyond universe
        {0, static_cast<ItemId>(space.num_items() + 7)},  // mixed in/out
    };
    for (const auto& txn : edges) {
        index.EncodeInto(txn, &scratch);
        EXPECT_EQ(scratch.encoded, testutil::ScanEncode(space, txn));
    }
    // Scratch reuse across many calls stays clean (counters cleared per call).
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        index.EncodeInto(db.transaction(t), &scratch);
        ASSERT_EQ(scratch.encoded, testutil::ScanEncode(space, db.transaction(t)));
    }
}

TEST(ScoringEngineEquivalenceTest, MatchesLoadedModelAcrossBatchAndThreads) {
    // 20 seeded DBs × batch sizes {1,7,64} × threads {1,8}: every engine
    // prediction equals LoadedModel::Predict on the same transaction.
    for (std::uint64_t seed = 200; seed < 220; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto db = Db(seed, 100);
        ModelRegistry registry;
        {
            LoadedModel model = TrainModel<NaiveBayesClassifier>(db);
            registry.Install(std::move(model));
        }
        const ServablePtr snapshot = registry.Snapshot();
        ASSERT_NE(snapshot, nullptr);

        std::vector<ClassLabel> expected(db.num_transactions());
        for (std::size_t t = 0; t < db.num_transactions(); ++t) {
            expected[t] = snapshot->model.Predict(db.transaction(t));
        }

        for (std::size_t max_batch : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
            for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
                SCOPED_TRACE("max_batch " + std::to_string(max_batch) +
                             " threads " + std::to_string(threads));
                EngineConfig config;
                config.max_batch = max_batch;
                config.num_threads = threads;
                config.max_delay_ms = 0.0;
                ScoringEngine engine(registry, config);
                std::vector<std::future<Result<Prediction>>> futures;
                futures.reserve(db.num_transactions());
                for (std::size_t t = 0; t < db.num_transactions(); ++t) {
                    futures.push_back(engine.Submit(db.transaction(t)));
                }
                for (std::size_t t = 0; t < db.num_transactions(); ++t) {
                    auto prediction = futures[t].get();
                    ASSERT_TRUE(prediction.ok()) << prediction.status();
                    ASSERT_EQ(prediction->label, expected[t]) << "row " << t;
                    ASSERT_EQ(prediction->model_version, snapshot->version);
                }
            }
        }
    }
}

TEST(ScoringEngineEquivalenceTest, PredictBatchMatchesAndCanonicalizes) {
    const auto db = Db(42);
    ModelRegistry registry;
    registry.Install(TrainModel<SvmClassifier>(db));
    const ServablePtr snapshot = registry.Snapshot();

    EngineConfig config;
    config.num_threads = 8;
    ScoringEngine engine(registry, config);

    std::vector<std::vector<ItemId>> batch;
    std::vector<ClassLabel> expected;
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        // Feed unsorted, duplicated items — the engine canonicalizes.
        std::vector<ItemId> txn = db.transaction(t);
        std::vector<ItemId> scrambled(txn.rbegin(), txn.rend());
        if (!txn.empty()) scrambled.push_back(txn.front());
        batch.push_back(std::move(scrambled));
        expected.push_back(snapshot->model.Predict(txn));
    }
    auto predictions = engine.PredictBatch(batch);
    ASSERT_TRUE(predictions.ok()) << predictions.status();
    ASSERT_EQ(predictions->size(), expected.size());
    for (std::size_t t = 0; t < expected.size(); ++t) {
        EXPECT_EQ((*predictions)[t].label, expected[t]) << "row " << t;
    }
}

}  // namespace
}  // namespace dfp::serve
