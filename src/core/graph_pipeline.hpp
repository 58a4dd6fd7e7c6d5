// Frequent-pattern-based classification over labeled graphs (the second §6
// extension direction; the compound-classification setting of the paper's
// reference [7], built on the labeled-path miner).
//
// Same three steps: per-class frequent-path mining, MMR selection over path
// covers (Eq. 9), and learning on "vertex-label presence ∪ selected paths"
// — a binary space like B^{d'}: coordinate l is 1 when the graph has a
// vertex labelled l.
#pragma once

#include <memory>
#include <vector>

#include "common/status.hpp"
#include "data/graph.hpp"
#include "fpm/pathminer.hpp"
#include "ml/classifier.hpp"

namespace dfp {

struct GraphPipelineConfig {
    PathMinerConfig miner;
    bool per_class_mining = true;
    /// Minimum edges per path feature (0-edge paths duplicate the
    /// vertex-label coordinates).
    std::size_t min_pattern_edges = 1;
    std::size_t max_features = 150;
};

struct GraphFeature {
    PathPattern pattern;
    double relevance = 0.0;
};

/// Mines, selects, and learns; predicts raw labeled graphs.
class GraphClassifierPipeline {
  public:
    explicit GraphClassifierPipeline(GraphPipelineConfig config)
        : config_(std::move(config)) {}

    Status Train(const GraphDatabase& train, std::unique_ptr<Classifier> learner);
    ClassLabel Predict(const LabeledGraph& graph) const;
    double Accuracy(const GraphDatabase& test) const;

    const std::vector<GraphFeature>& features() const { return features_; }
    std::size_t num_candidates() const { return num_candidates_; }

  private:
    /// The learner's space over `count` graphs (graph_of(i) is graph i):
    /// vertex-label presence, then the selected paths.
    template <typename GraphOf>
    FeatureMatrix Columns(std::size_t count, GraphOf graph_of) const;

    GraphPipelineConfig config_;
    std::vector<GraphFeature> features_;
    std::size_t num_candidates_ = 0;
    std::size_t num_vertex_labels_ = 0;
    std::unique_ptr<Classifier> learner_;
};

}  // namespace dfp
