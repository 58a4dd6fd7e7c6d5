// HARMONY-style instance-centric rule classifier (Wang & Karypis, SDM'05).
//
// The paper's Section 5 compares its framework against HARMONY ("our
// classification accuracy is significantly higher, e.g., up to 11.94% on
// Waveform"). HARMONY's defining idea is *instance-centric* rule selection:
// instead of a global confidence-ordered cover (CBA), it guarantees that for
// every training instance one of the highest-confidence rules covering it is
// kept. Prediction scores each class by the top-K covering rules' confidences.
//
// This implementation mines candidate rules from closed frequent patterns
// (pattern → majority class) and then performs the instance-centric
// selection; it is the stand-in comparator for the related-work bench.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/pattern_match_index.hpp"
#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"
#include "fpm/miner.hpp"

namespace dfp {

struct HarmonyConfig {
    MinerConfig miner;
    /// Keep the top-K highest-confidence rules per training instance.
    std::size_t rules_per_instance = 1;
    /// Rules per class used at prediction time (score = sum of confidences).
    std::size_t prediction_rules = 5;
    double min_confidence = 0.5;
};

struct HarmonyRule {
    Itemset antecedent;
    ClassLabel consequent = 0;
    double confidence = 0.0;
    std::size_t support = 0;
};

/// Instance-centric rule classifier.
class HarmonyClassifier {
  public:
    explicit HarmonyClassifier(HarmonyConfig config = {})
        : config_(std::move(config)) {}

    Status Train(const TransactionDatabase& train);
    /// Not thread-safe: matching reuses one scratch.
    ClassLabel Predict(const std::vector<ItemId>& transaction) const;
    double Accuracy(const TransactionDatabase& test) const;

    const std::vector<HarmonyRule>& rules() const { return rules_; }
    ClassLabel default_class() const { return default_class_; }

  private:
    HarmonyConfig config_;
    std::vector<HarmonyRule> rules_;  // sorted by confidence desc
    ClassLabel default_class_ = 0;
    PatternMatchIndex matcher_;  ///< over rules_' antecedents, in order
    mutable PatternMatchIndex::Scratch scratch_;
};

}  // namespace dfp
