#include "core/model_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/dtree/c45.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "ml/svm/svm.hpp"
#include "testutil/scratch_path.hpp"

namespace dfp {
namespace {

TransactionDatabase Db(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.rows = 250;
    spec.classes = 2;
    spec.attributes = 8;
    spec.arity = 3;
    spec.seed = seed;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

PipelineConfig SmallConfig() {
    PipelineConfig config;
    config.miner.min_sup_rel = 0.12;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    return config;
}

TEST(FeatureSpaceIoTest, RoundTrip) {
    const auto db = Db(1);
    PatternClassifierPipeline pipeline(SmallConfig());
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<NaiveBayesClassifier>()).ok());
    // The feature space is read back as the first section of a bundle.
    std::stringstream stream;
    ASSERT_TRUE(SavePipelineModel(pipeline, stream).ok());
    auto model = LoadPipelineModel(stream);
    ASSERT_TRUE(model.ok()) << model.status();
    const FeatureSpace& loaded = model->feature_space();
    EXPECT_EQ(loaded.dim(), pipeline.feature_space().dim());
    EXPECT_EQ(loaded.num_patterns(), pipeline.feature_space().num_patterns());
    // Identical encodings on every transaction.
    PatternMatchIndex::Scratch a;
    PatternMatchIndex::Scratch b;
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        loaded.Encode(db.transaction(t), &a);
        pipeline.feature_space().Encode(db.transaction(t), &b);
        EXPECT_EQ(a.encoded, b.encoded) << "row " << t;
    }
}

template <typename LearnerT>
void RoundTripPredictions(std::uint64_t seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto db = Db(seed);
    PatternClassifierPipeline pipeline(SmallConfig());
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<LearnerT>()).ok());

    std::stringstream stream;
    ASSERT_TRUE(SavePipelineModel(pipeline, stream).ok());
    const std::string bundle = stream.str();
    auto loaded = LoadPipelineModel(stream);
    ASSERT_TRUE(loaded.ok()) << loaded.status();

    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        EXPECT_EQ(loaded->Predict(db.transaction(t)),
                  pipeline.Predict(db.transaction(t)))
            << "row " << t;
    }

    // Save→Load→Save is byte-stable: the loaded learner re-serializes to the
    // exact bundle it was parsed from, so the format loses no precision.
    std::stringstream again;
    again << "dfp-model v1 " << loaded->learner().TypeId() << '\n';
    ASSERT_TRUE(SaveFeatureSpace(loaded->feature_space(), again).ok());
    ASSERT_TRUE(loaded->learner().SaveModel(again).ok());
    EXPECT_EQ(again.str(), bundle);
}

// Round-trip matrix: every serializable learner × several mining seeds, each
// checked for prediction bit-equivalence and re-save idempotence.
constexpr std::uint64_t kMatrixSeeds[] = {2, 3, 4, 5, 23};

TEST(ModelIoTest, SvmRoundTripMatrix) {
    for (std::uint64_t seed : kMatrixSeeds) RoundTripPredictions<SvmClassifier>(seed);
}
TEST(ModelIoTest, C45RoundTripMatrix) {
    for (std::uint64_t seed : kMatrixSeeds) RoundTripPredictions<C45Classifier>(seed);
}
TEST(ModelIoTest, NaiveBayesRoundTripMatrix) {
    for (std::uint64_t seed : kMatrixSeeds) {
        RoundTripPredictions<NaiveBayesClassifier>(seed);
    }
}

TEST(ModelIoTest, RbfSvmRoundTrip) {
    const auto db = Db(6);
    PatternClassifierPipeline pipeline(SmallConfig());
    SmoConfig smo;
    smo.kernel.type = KernelType::kRbf;
    smo.kernel.gamma = 0.05;
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<SvmClassifier>(smo)).ok());
    std::stringstream stream;
    ASSERT_TRUE(SavePipelineModel(pipeline, stream).ok());
    auto loaded = LoadPipelineModel(stream);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    for (std::size_t t = 0; t < db.num_transactions(); t += 3) {
        EXPECT_EQ(loaded->Predict(db.transaction(t)),
                  pipeline.Predict(db.transaction(t)));
    }
}

TEST(ModelIoTest, FileRoundTrip) {
    const auto db = Db(7);
    PatternClassifierPipeline pipeline(SmallConfig());
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<C45Classifier>()).ok());
    const testutil::ScratchPath path("dfp_model_io_test", ".model");
    ASSERT_TRUE(SavePipelineModelToFile(pipeline, path.str()).ok());
    auto loaded = LoadPipelineModelFromFile(path.str());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_NEAR(loaded->Accuracy(db), pipeline.Accuracy(db), 1e-12);
}

TEST(ModelIoTest, LoadRejectsGarbage) {
    std::stringstream bad("not-a-model at all");
    EXPECT_FALSE(LoadPipelineModel(bad).ok());
    std::stringstream truncated("dfp-model v1 c4.5\nfeature-space 5");
    EXPECT_FALSE(LoadPipelineModel(truncated).ok());
    std::stringstream unknown("dfp-model v1 martian\nfeature-space 5 0\n");
    EXPECT_FALSE(LoadPipelineModel(unknown).ok());
}

TEST(ModelIoTest, RemovedLearnerIdFailsWithNotFound) {
    // A well-formed bundle naming a learner id the program no longer has.
    std::stringstream in(
        "dfp-model v1 pegasos\nfeature-space 2 0\npegasos-model 2 2\n"
        "0.5 -0.5 -0.5 0.5\n0 0\n");
    const auto loaded = LoadPipelineModel(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound) << loaded.status();
}

TEST(ModelIoTest, SaveWithoutTrainingFails) {
    PatternClassifierPipeline pipeline(SmallConfig());
    std::stringstream stream;
    EXPECT_FALSE(SavePipelineModel(pipeline, stream).ok());
}

TEST(ModelIoTest, MakeLearnerByTypeId) {
    EXPECT_TRUE(MakeLearnerByTypeId("svm").ok());
    EXPECT_TRUE(MakeLearnerByTypeId("c4.5").ok());
    EXPECT_TRUE(MakeLearnerByTypeId("nb").ok());
    EXPECT_FALSE(MakeLearnerByTypeId("nope").ok());
}

}  // namespace
}  // namespace dfp
