// CBA-style associative classifier (Liu, Hsu & Ma, KDD'98).
//
// The related-work baseline the paper contrasts its framework against
// (Section 5 compares to rule-based classifiers like CBA/CMAR/HARMONY).
// Class-association rules (pattern → majority class) are ranked by
// (confidence, support, shorter antecedent), then the CBA-CB M1 covering pass
// keeps each rule that correctly classifies at least one still-uncovered
// training instance; a default class absorbs the remainder. Prediction fires
// the first matching rule, found through a PatternMatchIndex over the rule
// antecedents.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/pattern_match_index.hpp"
#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"
#include "fpm/miner.hpp"

namespace dfp {

struct CbaConfig {
    MinerConfig miner;          ///< candidate pattern mining parameters
    double min_confidence = 0.5;
    std::size_t max_rules = 100000;
};

/// One class-association rule.
struct CbaRule {
    Itemset antecedent;
    ClassLabel consequent = 0;
    double confidence = 0.0;
    std::size_t support = 0;
};

/// Rule-list classifier over raw transactions (not the vector feature space —
/// that distinction is the point of the comparison).
class CbaClassifier {
  public:
    explicit CbaClassifier(CbaConfig config = {}) : config_(std::move(config)) {}

    /// Mines rules from `train` and runs the covering pass.
    Status Train(const TransactionDatabase& train);

    /// First-matching-rule prediction (default class when nothing fires).
    /// Not thread-safe: matching reuses one scratch.
    ClassLabel Predict(const std::vector<ItemId>& transaction) const;

    double Accuracy(const TransactionDatabase& test) const;

    const std::vector<CbaRule>& rules() const { return rules_; }
    ClassLabel default_class() const { return default_class_; }

  private:
    CbaConfig config_;
    std::vector<CbaRule> rules_;
    ClassLabel default_class_ = 0;
    PatternMatchIndex matcher_;  ///< over rules_' antecedents, in rank order
    mutable PatternMatchIndex::Scratch scratch_;
};

}  // namespace dfp
