#include "core/graph_pipeline.hpp"

#include <algorithm>
#include <set>

#include "core/cover_select.hpp"
#include "core/measures.hpp"
#include "ml/feature_matrix.hpp"

namespace dfp {

namespace {

// IG of a cover against the graph labels.
double CoverInformationGain(const GraphDatabase& db, const BitVector& cover) {
    const std::vector<std::size_t> totals = db.ClassCounts();
    std::vector<std::size_t> support(db.num_classes(), 0);
    cover.ForEach([&](std::uint32_t t) { support[db.label(t)]++; });
    FeatureStats stats;
    stats.n = db.size();
    stats.support = cover.Count();
    stats.class_totals = totals;
    stats.class_support = support;
    return InformationGain(stats);
}

}  // namespace

Status GraphClassifierPipeline::Train(const GraphDatabase& train,
                                      std::unique_ptr<Classifier> learner) {
    if (learner == nullptr) {
        return Status::InvalidArgument("graph pipeline requires a learner");
    }
    if (train.size() == 0) {
        return Status::InvalidArgument("empty graph database");
    }
    num_vertex_labels_ = train.num_vertex_labels();

    // 1. Feature generation: frequent paths per class partition, pooled.
    std::set<PathPattern> seen;
    std::vector<PathPattern> pooled;
    auto mine_into = [&](const GraphDatabase& part) -> Status {
        auto mined = MinePaths(part, config_.miner);
        if (!mined.ok()) return mined.status();
        for (PathPattern& p : *mined) {
            if (p.length() < config_.min_pattern_edges) continue;
            if (seen.insert(p).second) pooled.push_back(std::move(p));
        }
        return Status::Ok();
    };
    if (config_.per_class_mining) {
        for (ClassLabel c = 0; c < train.num_classes(); ++c) {
            const GraphDatabase part = train.FilterByClass(c);
            if (part.size() == 0) continue;
            DFP_RETURN_NOT_OK(mine_into(part));
        }
    } else {
        DFP_RETURN_NOT_OK(mine_into(train));
    }
    num_candidates_ = pooled.size();

    // 2. Covers + relevance over the full training set, MMR selection.
    std::vector<BitVector> covers;
    std::vector<double> relevance;
    covers.reserve(pooled.size());
    for (const PathPattern& p : pooled) {
        BitVector cover(train.size());
        for (std::size_t g = 0; g < train.size(); ++g) {
            if (ContainsPath(train.graph(g), p)) cover.Set(g);
        }
        relevance.push_back(CoverInformationGain(train, cover));
        covers.push_back(std::move(cover));
    }
    const auto chosen = GreedyMmrSelect(covers, relevance, config_.max_features);
    features_.clear();
    for (std::size_t i : chosen) {
        PathPattern p = pooled[i];
        p.support = covers[i].Count();
        features_.push_back({std::move(p), relevance[i]});
    }

    // 3. Learn on vertex-label presence ∪ selected paths, built by the same
    // Columns that encodes the graphs Predict and Accuracy see.
    const FeatureMatrix x =
        Columns(train.size(), [&train](std::size_t g) -> const LabeledGraph& {
            return train.graph(g);
        });
    DFP_RETURN_NOT_OK(learner->Train(x, train.labels(), train.num_classes()));
    learner_ = std::move(learner);
    return Status::Ok();
}

template <typename GraphOf>
FeatureMatrix GraphClassifierPipeline::Columns(std::size_t count,
                                               GraphOf graph_of) const {
    FeatureMatrix x(count, num_vertex_labels_ + features_.size());
    for (std::size_t g = 0; g < count; ++g) {
        const LabeledGraph& graph = graph_of(g);
        for (std::size_t v = 0; v < graph.num_vertices(); ++v) {
            const VertexLabel vl = graph.vertex_label(v);
            if (vl < num_vertex_labels_) x.Set(g, vl);
        }
        for (std::size_t f = 0; f < features_.size(); ++f) {
            if (ContainsPath(graph, features_[f].pattern)) {
                x.Set(g, num_vertex_labels_ + f);
            }
        }
    }
    return x;
}

ClassLabel GraphClassifierPipeline::Predict(const LabeledGraph& graph) const {
    const PackedRows row(
        Columns(1, [&graph](std::size_t) -> const LabeledGraph& { return graph; }));
    return learner_->Predict(row.Row(0));
}

double GraphClassifierPipeline::Accuracy(const GraphDatabase& test) const {
    return learner_->Accuracy(
        Columns(test.size(),
                [&test](std::size_t g) -> const LabeledGraph& { return test.graph(g); }),
        test.labels());
}

}  // namespace dfp
