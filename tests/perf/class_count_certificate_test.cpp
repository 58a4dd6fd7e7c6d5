// Certificates for the class-count table a learner trains on.
//
// The pipeline's training matrix carries its per-column class counts
// |column f ∧ class c| (the database's item table for item columns, each
// candidate's class_counts for pattern columns), and naive Bayes reads them
// instead of counting. The counts are integers, so a
// model trained on them must be bit-identical to one trained on the same
// matrix without them, which counts for itself (ColumnClassCounts). These
// tests compare saved bundles byte for byte across the pipeline's shapes
// (Pat_FS, Pat_All, chi²-filtered Pat_All, with and without single items,
// Train and TrainWithCandidates) and one ContinuousTrainer retrain window.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "common/string_util.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "fpm/eclat.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "serve/registry.hpp"
#include "stream/streaming_db.hpp"
#include "stream/trainer.hpp"
#include "testutil/drift_source.hpp"

namespace dfp {
namespace {

/// Wraps a learner and trains it on a copy of the matrix without class
/// counts, so it counts for itself; everything else, TypeId and SaveModel
/// included, is the wrapped learner's. It also records what the pipeline
/// handed it: whether the matrix carried counts, and whether they equal
/// ColumnClassCounts of the matrix under the labels.
class CountBlindLearner : public Classifier {
  public:
    explicit CountBlindLearner(std::unique_ptr<Classifier> inner)
        : inner_(std::move(inner)) {}

    std::string Name() const override { return inner_->Name(); }
    std::string TypeId() const override { return inner_->TypeId(); }
    Status SaveModel(std::ostream& out) const override {
        return inner_->SaveModel(out);
    }
    Status LoadModel(std::istream& in, std::size_t cols) override {
        return inner_->LoadModel(in, cols);
    }
    ClassLabel Predict(std::span<const std::uint64_t> row) const override {
        return inner_->Predict(row);
    }
    Status Train(const FeatureMatrix& x, const std::vector<ClassLabel>& y,
                 std::size_t num_classes) override {
        supplied_ = x.HasClassCounts(num_classes);
        counts_exact_ =
            supplied_ && x.class_counts() == ColumnClassCounts(x, y, num_classes);
        std::vector<BitVector> columns;
        for (std::size_t f = 0; f < x.cols(); ++f) columns.push_back(x.Column(f));
        const FeatureMatrix blind(x.rows(), std::move(columns));
        EXPECT_FALSE(blind.HasClassCounts(num_classes));
        return inner_->Train(blind, y, num_classes);
    }

    bool supplied() const { return supplied_; }
    bool counts_exact() const { return counts_exact_; }

  private:
    std::unique_ptr<Classifier> inner_;
    bool supplied_ = false;
    bool counts_exact_ = false;
};

std::string Bundle(const PatternClassifierPipeline& pipeline) {
    std::ostringstream out;
    EXPECT_TRUE(SavePipelineModel(pipeline, out).ok());
    return out.str();
}

std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string ModelBytes(const Classifier& learner) {
    std::ostringstream out;
    EXPECT_TRUE(learner.SaveModel(out).ok());
    return out.str();
}

TransactionDatabase Db(std::uint64_t seed, std::size_t classes) {
    SyntheticSpec spec;
    spec.rows = 300;
    spec.classes = classes;
    spec.attributes = 9;
    spec.arity = 3;
    spec.seed = seed;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

struct Shape {
    const char* name;
    bool feature_selection;
    SigTest sig_test;
};

constexpr Shape kShapes[] = {
    {"Pat_FS", true, SigTest::kNone},
    {"Pat_All", false, SigTest::kNone},
    {"chi2 Pat_All", false, SigTest::kChi2},
};

TEST(ClassCountCertificateTest, SuppliedCountsTrainTheSameBundle) {
    for (const std::uint64_t seed : {1u, 2u}) {
        // Every column of a 4-class database, and of a 2-class one.
        const TransactionDatabase train = Db(seed, seed == 1 ? 4 : 2);
        for (const Shape& shape : kShapes) {
            for (const bool items : {true, false}) {
                for (const bool with_candidates : {false, true}) {
                    SCOPED_TRACE(StrFormat(
                        "seed %llu %s items=%d %s",
                        static_cast<unsigned long long>(seed), shape.name, items,
                        with_candidates ? "TrainWithCandidates" : "Train"));
                    PipelineConfig config;
                    config.miner.min_sup_rel = 0.08;
                    config.miner.max_pattern_len = 4;
                    config.mmrfs.coverage_delta = 2;
                    config.feature_selection = shape.feature_selection;
                    config.significance.test = shape.sig_test;
                    config.include_single_items = items;
                    auto train_one = [&](std::unique_ptr<Classifier> learner,
                                         PatternClassifierPipeline* pipeline) {
                        if (!with_candidates) {
                            return pipeline->Train(train, std::move(learner));
                        }
                        auto mined = pipeline->MineCandidates(train);
                        if (!mined.ok()) return mined.status();
                        return pipeline->TrainWithCandidates(
                            train, std::move(mined).value(), std::move(learner));
                    };
                    PatternClassifierPipeline supplied(config);
                    ASSERT_TRUE(
                        train_one(std::make_unique<NaiveBayesClassifier>(), &supplied)
                            .ok());
                    auto blind = std::make_unique<CountBlindLearner>(
                        std::make_unique<NaiveBayesClassifier>());
                    const CountBlindLearner* probe = blind.get();
                    PatternClassifierPipeline counted(config);
                    ASSERT_TRUE(train_one(std::move(blind), &counted).ok());

                    EXPECT_TRUE(probe->supplied());
                    EXPECT_TRUE(probe->counts_exact());
                    ASSERT_GT(supplied.feature_space().dim(), 0u);
                    EXPECT_EQ(Bundle(supplied), Bundle(counted));
                }
            }
        }
    }
}

TEST(ClassCountCertificateTest, RetrainWindowTrainsTheSameBundle) {
    FailpointRegistry::Get().DisableAll();
    testutil::DriftSourceConfig source_config;
    source_config.num_phases = 1;
    source_config.rows_per_phase = 500;
    source_config.eval_rows = 50;
    source_config.seed = 9;
    testutil::DriftSource source(source_config);

    stream::StreamConfig stream_config;
    stream_config.num_items = source.num_items();
    stream_config.num_classes = source.num_classes();
    stream_config.window_capacity = 400;
    auto db = stream::StreamingDatabase::Create(stream_config);
    ASSERT_TRUE(db.ok());

    stream::ContinuousTrainerConfig config;
    config.pipeline.miner.min_sup_rel = 0.12;
    config.pipeline.miner.max_pattern_len = 4;
    config.pipeline.mmrfs.coverage_delta = 2;
    config.learner_type = "nb";
    config.min_window = 200;
    config.drift_trigger = false;
    config.model_dir = ::testing::TempDir() + "/dfp_class_counts_" +
                       std::to_string(::getpid());
    serve::ModelRegistry registry;
    auto trainer = stream::ContinuousTrainer::Create(config, db->get(), &registry);
    ASSERT_TRUE(trainer.ok()) << trainer.status();
    ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(500)).ok());
    ASSERT_TRUE((*trainer)->RetrainNow("certificate").ok());
    const std::string path = StrFormat(
        "%s/stream_model_v%llu.dfp", config.model_dir.c_str(),
        static_cast<unsigned long long>((*trainer)->stats().last_stream_version));
    const std::string published = ReadFile(path);
    ASSERT_FALSE(published.empty()) << path;

    // The retrain's own steps on the same window, with a learner that
    // counts for itself.
    const auto window = (*db)->SnapshotWindow();
    MinerConfig mc = config.pipeline.miner;
    mc.include_singletons = false;
    auto mined = EclatMiner().Mine(*window, mc);
    ASSERT_TRUE(mined.ok());
    auto blind = std::make_unique<CountBlindLearner>(
        std::make_unique<NaiveBayesClassifier>());
    const CountBlindLearner* probe = blind.get();
    PatternClassifierPipeline counted(config.pipeline);
    ASSERT_TRUE(counted
                    .TrainWithCandidates(*window, std::move(mined).value(),
                                         std::move(blind))
                    .ok());
    EXPECT_TRUE(probe->supplied());
    EXPECT_TRUE(probe->counts_exact());
    const std::string counted_path = config.model_dir + "/counted.dfp";
    ASSERT_TRUE(SavePipelineModelToFile(counted, counted_path).ok());
    EXPECT_EQ(published, ReadFile(counted_path));

    std::error_code ec;
    std::filesystem::remove_all(config.model_dir, ec);
}

// A matrix of three classes with the counts it would carry.
FeatureMatrix Matrix(std::vector<ClassLabel>* y) {
    *y = {0, 1, 2, 0, 1, 2, 0, 0, 1, 2, 2, 1};
    FeatureMatrix x(y->size(), 5);
    for (std::size_t r = 0; r < y->size(); ++r) {
        for (std::size_t f = 0; f < x.cols(); ++f) {
            if ((r * 7 + f * 3 + (*y)[r]) % 4 < 2) x.Set(r, f);
        }
    }
    return x;
}

TEST(ClassCountCertificateTest, WrongSizedCountsAreRecounted) {
    std::vector<ClassLabel> y;
    const FeatureMatrix plain = Matrix(&y);
    const std::size_t full = plain.cols() * 3;
    NaiveBayesClassifier reference;
    ASSERT_TRUE(reference.Train(plain, y, 3).ok());
    const std::string want = ModelBytes(reference);
    // Garbage of the wrong shape: too short, too long, and a full table
    // declared for another class count.
    const std::vector<std::pair<std::vector<std::size_t>, std::size_t>> cases = {
        {std::vector<std::size_t>(full - 1, 99), 3},
        {std::vector<std::size_t>(full + 1, 99), 3},
        {std::vector<std::size_t>(full, 99), 2},
    };
    for (const auto& [counts, classes] : cases) {
        FeatureMatrix x = plain;
        x.SetClassCounts(counts, classes);
        ASSERT_FALSE(x.HasClassCounts(3));
        NaiveBayesClassifier learner;
        ASSERT_TRUE(learner.Train(x, y, 3).ok());
        EXPECT_EQ(want, ModelBytes(learner));
    }
}

TEST(ClassCountCertificateTest, FullTableIsWhatTheLearnerReads) {
    // The certificates above are not vacuous: a full table is read as given,
    // so exact counts reproduce the self-counted model and altered counts
    // change it.
    std::vector<ClassLabel> y;
    const FeatureMatrix plain = Matrix(&y);
    const std::vector<std::size_t> exact = ColumnClassCounts(plain, y, 3);
    NaiveBayesClassifier reference;
    ASSERT_TRUE(reference.Train(plain, y, 3).ok());

    FeatureMatrix x = plain;
    x.SetClassCounts(exact, 3);
    NaiveBayesClassifier same;
    ASSERT_TRUE(same.Train(x, y, 3).ok());
    EXPECT_EQ(ModelBytes(reference), ModelBytes(same));

    // Column 0 now reads as an exact class-0 indicator, which it is not.
    std::vector<std::size_t> altered = exact;
    altered[0] = 4;  // every class-0 row
    altered[1] = 0;
    altered[2] = 0;
    x.SetClassCounts(altered, 3);
    NaiveBayesClassifier other;
    ASSERT_TRUE(other.Train(x, y, 3).ok());
    EXPECT_NE(ModelBytes(reference), ModelBytes(other));
}

}  // namespace
}  // namespace dfp
