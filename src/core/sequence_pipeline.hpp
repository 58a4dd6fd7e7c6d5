// Frequent-pattern-based classification over sequences (the paper's §6
// extension direction, built on the PrefixSpan miner).
//
// Same three steps as the itemset pipeline: per-class mining of frequent
// subsequences, MMR-style selection (information gain relevance discounted by
// cover-Jaccard redundancy, Eq. 9 applied verbatim to subsequence covers),
// and learning on the feature space "item presence ∪ selected subsequences".
#pragma once

#include <memory>
#include <vector>

#include "common/bitvector.hpp"
#include "common/status.hpp"
#include "core/measures.hpp"
#include "fpm/prefixspan.hpp"
#include "ml/classifier.hpp"

namespace dfp {

struct SequencePipelineConfig {
    PrefixSpanConfig miner;
    bool per_class_mining = true;
    /// Minimum subsequence length kept as a feature (1-item subsequences
    /// duplicate the item-presence coordinates).
    std::size_t min_pattern_len = 2;
    /// Maximum number of selected subsequence features.
    std::size_t max_features = 200;
};

/// A selected subsequence feature with its training metadata.
struct SequenceFeature {
    Sequence items;
    std::size_t support = 0;
    double relevance = 0.0;
};

/// Mines, selects and learns; predicts raw sequences.
class SequenceClassifierPipeline {
  public:
    explicit SequenceClassifierPipeline(SequencePipelineConfig config)
        : config_(std::move(config)) {}

    Status Train(const SequenceDatabase& train, std::unique_ptr<Classifier> learner);
    ClassLabel Predict(const Sequence& sequence) const;
    double Accuracy(const SequenceDatabase& test) const;

    const std::vector<SequenceFeature>& features() const { return features_; }
    std::size_t num_candidates() const { return num_candidates_; }

  private:
    /// The learner's space over `count` sequences (sequence_of(i) is
    /// sequence i): item presence, then the selected subsequences.
    template <typename SequenceOf>
    FeatureMatrix Columns(std::size_t count, SequenceOf sequence_of) const;

    SequencePipelineConfig config_;
    std::vector<SequenceFeature> features_;
    std::size_t num_candidates_ = 0;
    std::size_t num_items_ = 0;
    std::unique_ptr<Classifier> learner_;
};

}  // namespace dfp
