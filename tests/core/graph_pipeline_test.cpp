#include "core/graph_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ml/dtree/c45.hpp"
#include "ml/svm/svm.hpp"

namespace dfp {
namespace {

GraphDatabase MakeDb(std::uint64_t seed, std::size_t rows = 300) {
    GraphSpec spec;
    spec.rows = rows;
    spec.seed = seed;
    spec.carrier_prob = 0.85;
    spec.label_noise = 0.02;
    return GenerateGraphs(spec);
}

GraphPipelineConfig SmallConfig() {
    GraphPipelineConfig config;
    config.miner.min_sup_rel = 0.25;
    config.miner.max_edges = 3;
    config.max_features = 60;
    return config;
}

TEST(GraphPipelineTest, BeatsMajorityBaseline) {
    const auto db = MakeDb(1);
    const auto counts = db.ClassCounts();
    const double majority =
        static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
        static_cast<double>(db.size());
    GraphClassifierPipeline pipeline(SmallConfig());
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<SvmClassifier>()).ok());
    EXPECT_GT(pipeline.Accuracy(db), majority + 0.1);
}

TEST(GraphPipelineTest, SelectedFeaturesHaveEdgesAndRelevance) {
    const auto db = MakeDb(2);
    GraphClassifierPipeline pipeline(SmallConfig());
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<C45Classifier>()).ok());
    ASSERT_FALSE(pipeline.features().empty());
    EXPECT_GE(pipeline.num_candidates(), pipeline.features().size());
    for (const auto& f : pipeline.features()) {
        EXPECT_GE(f.pattern.length(), 1u);
        EXPECT_GT(f.relevance, 0.0);
    }
}

TEST(GraphPipelineTest, GeneralizesToHoldout) {
    const auto db = MakeDb(3, 400);
    std::vector<std::size_t> train_rows;
    std::vector<std::size_t> test_rows;
    for (std::size_t i = 0; i < db.size(); ++i) {
        (i % 5 == 0 ? test_rows : train_rows).push_back(i);
    }
    const auto train = db.Subset(train_rows);
    const auto test = db.Subset(test_rows);
    GraphClassifierPipeline pipeline(SmallConfig());
    ASSERT_TRUE(pipeline.Train(train, std::make_unique<SvmClassifier>()).ok());
    EXPECT_GT(pipeline.Accuracy(test), 0.65);
}

TEST(GraphPipelineTest, MaxFeaturesRespected) {
    const auto db = MakeDb(4);
    GraphPipelineConfig config = SmallConfig();
    config.max_features = 7;
    GraphClassifierPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<C45Classifier>()).ok());
    EXPECT_LE(pipeline.features().size(), 7u);
}

// Records the training matrix and every encoded row it is asked to predict.
class RecordingClassifier : public Classifier {
  public:
    struct Log {
        FeatureMatrix train;
        std::vector<std::vector<std::uint64_t>> predicted;
    };
    explicit RecordingClassifier(std::shared_ptr<Log> log) : log_(std::move(log)) {}

    std::string Name() const override { return "recording"; }
    Status Train(const FeatureMatrix& x, const std::vector<ClassLabel>& /*y*/,
                 std::size_t /*num_classes*/) override {
        log_->train = x;
        return Status::Ok();
    }
    ClassLabel Predict(std::span<const std::uint64_t> row) const override {
        log_->predicted.emplace_back(row.begin(), row.end());
        return 0;
    }

  private:
    std::shared_ptr<Log> log_;
};

TEST(GraphPipelineTest, EncodesVertexLabelPresenceAlikeInTrainAndPredict) {
    // The learner input is 0/1: a vertex label seen twice in a graph is a 1,
    // in the training matrix and in the row Predict encodes.
    const auto db = MakeDb(6);
    auto log = std::make_shared<RecordingClassifier::Log>();
    GraphClassifierPipeline pipeline(SmallConfig());
    ASSERT_TRUE(
        pipeline.Train(db, std::make_unique<RecordingClassifier>(log)).ok());
    ASSERT_EQ(log->train.rows(), db.size());
    ASSERT_EQ(log->train.cols(), db.num_vertex_labels() + pipeline.features().size());
    const PackedRows train_rows(log->train);
    bool saw_repeated_label = false;
    for (std::size_t g = 0; g < db.size(); ++g) {
        const LabeledGraph& graph = db.graph(g);
        std::vector<std::size_t> label_counts(db.num_vertex_labels(), 0);
        for (std::size_t v = 0; v < graph.num_vertices(); ++v) {
            ++label_counts[graph.vertex_label(v)];
        }
        for (std::size_t vl = 0; vl < label_counts.size(); ++vl) {
            EXPECT_EQ(log->train.Test(g, vl), label_counts[vl] > 0) << g << "," << vl;
            if (label_counts[vl] > 1) saw_repeated_label = true;
        }
        pipeline.Predict(graph);
        ASSERT_EQ(log->predicted.size(), g + 1);
        EXPECT_TRUE(std::ranges::equal(log->predicted.back(), train_rows.Row(g)))
            << "graph " << g;
    }
    EXPECT_TRUE(saw_repeated_label);
}

TEST(GraphPipelineTest, ErrorsPropagate) {
    GraphClassifierPipeline pipeline(SmallConfig());
    EXPECT_FALSE(pipeline.Train(MakeDb(5), nullptr).ok());
    const GraphDatabase empty({}, {}, 6, 3, 2);
    GraphClassifierPipeline pipeline2(SmallConfig());
    EXPECT_FALSE(pipeline2.Train(empty, std::make_unique<C45Classifier>()).ok());
}

}  // namespace
}  // namespace dfp
