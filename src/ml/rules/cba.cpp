#include "ml/rules/cba.hpp"

#include <algorithm>

#include "fpm/closed_miner.hpp"

namespace dfp {

Status CbaClassifier::Train(const TransactionDatabase& train) {
    if (train.num_transactions() == 0) {
        return Status::InvalidArgument("empty training database");
    }
    rules_.clear();

    ClosedMiner miner;
    auto mined = miner.Mine(train, config_.miner);
    if (!mined.ok()) return mined.status();
    std::vector<Pattern> patterns = std::move(mined).value();
    AttachMetadata(train, &patterns);

    // Candidate rules: pattern → its majority class, confidence-filtered.
    std::vector<CbaRule> candidates;
    for (const Pattern& p : patterns) {
        CbaRule rule;
        rule.antecedent = p.items;
        rule.consequent = p.MajorityClass();
        rule.confidence = p.Confidence();
        rule.support = p.class_counts[rule.consequent];
        if (rule.confidence >= config_.min_confidence) {
            candidates.push_back(std::move(rule));
        }
    }
    // CBA total order: confidence desc, support desc, shorter antecedent first.
    std::sort(candidates.begin(), candidates.end(),
              [](const CbaRule& a, const CbaRule& b) {
                  if (a.confidence != b.confidence) return a.confidence > b.confidence;
                  if (a.support != b.support) return a.support > b.support;
                  if (a.antecedent.size() != b.antecedent.size()) {
                      return a.antecedent.size() < b.antecedent.size();
                  }
                  return a.antecedent < b.antecedent;
              });
    if (candidates.size() > config_.max_rules) {
        candidates.resize(config_.max_rules);
    }

    // CBA-CB M1 covering pass, over cover sets: a rule is kept iff its
    // still-uncovered rows include one of its consequent class.
    BitVector covered(train.num_transactions());
    std::size_t uncovered = train.num_transactions();
    for (CbaRule& rule : candidates) {
        if (uncovered == 0) break;
        BitVector fresh = train.CoverOf(rule.antecedent);
        fresh.AndNot(covered);
        if (fresh.AndCount(train.ClassCover(rule.consequent)) == 0) continue;
        rules_.push_back(rule);
        covered |= fresh;
        uncovered -= fresh.Count();
    }
    std::vector<Pattern> antecedents(rules_.size());
    for (std::size_t r = 0; r < rules_.size(); ++r) {
        antecedents[r].items = rules_[r].antecedent;
    }
    matcher_ = PatternMatchIndex::Build(0, antecedents);

    // Default class: majority among uncovered instances (or overall majority).
    std::vector<std::size_t> rest(train.num_classes(), 0);
    for (std::size_t t = 0; t < train.num_transactions(); ++t) {
        if (!covered.Test(t)) rest[train.label(t)]++;
    }
    if (uncovered == 0) rest = train.ClassCounts();
    std::size_t best = 0;
    for (std::size_t c = 1; c < rest.size(); ++c) {
        if (rest[c] > rest[best]) best = c;
    }
    default_class_ = static_cast<ClassLabel>(best);
    return Status::Ok();
}

ClassLabel CbaClassifier::Predict(const std::vector<ItemId>& transaction) const {
    matcher_.MatchInto(transaction, &scratch_);
    if (scratch_.matched.empty()) return default_class_;
    // Rule ids are rank positions: the lowest matching id fires, and
    // MatchInto lists the ids in ascending order.
    return rules_[scratch_.matched.front()].consequent;
}

double CbaClassifier::Accuracy(const TransactionDatabase& test) const {
    if (test.num_transactions() == 0) return 0.0;
    std::size_t correct = 0;
    for (std::size_t t = 0; t < test.num_transactions(); ++t) {
        if (Predict(test.transaction(t)) == test.label(t)) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(test.num_transactions());
}

}  // namespace dfp
