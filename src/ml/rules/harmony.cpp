#include "ml/rules/harmony.hpp"

#include <algorithm>
#include <set>

#include "fpm/closed_miner.hpp"

namespace dfp {

Status HarmonyClassifier::Train(const TransactionDatabase& train) {
    if (train.num_transactions() == 0) {
        return Status::InvalidArgument("empty training database");
    }
    rules_.clear();

    ClosedMiner miner;
    auto mined = miner.Mine(train, config_.miner);
    if (!mined.ok()) return mined.status();
    std::vector<Pattern> patterns = std::move(*mined);
    AttachMetadata(train, &patterns);

    // Candidate rules, confidence-filtered, sorted by (confidence, support).
    struct Candidate {
        HarmonyRule rule;
        const Pattern* pattern;
    };
    std::vector<Candidate> candidates;
    for (const Pattern& p : patterns) {
        HarmonyRule rule;
        rule.antecedent = p.items;
        rule.consequent = p.MajorityClass();
        rule.confidence = p.Confidence();
        rule.support = p.class_counts[rule.consequent];
        if (rule.confidence < config_.min_confidence) continue;
        candidates.push_back({std::move(rule), &p});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                  if (a.rule.confidence != b.rule.confidence) {
                      return a.rule.confidence > b.rule.confidence;
                  }
                  if (a.rule.support != b.rule.support) {
                      return a.rule.support > b.rule.support;
                  }
                  return a.rule.antecedent < b.rule.antecedent;
              });

    // Instance-centric selection: walking rules from the most confident down,
    // keep a rule iff some instance it correctly covers still needs one of its
    // top-K rules. This guarantees each instance retains (up to) the K most
    // confident rules that cover it.
    std::vector<std::size_t> needed(train.num_transactions(),
                                    config_.rules_per_instance);
    std::set<std::size_t> kept;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const Candidate& c = candidates[i];
        bool keep = false;
        c.pattern->cover.ForEach([&](std::uint32_t t) {
            if (train.label(t) == c.rule.consequent && needed[t] > 0) {
                needed[t]--;
                keep = true;
            }
        });
        if (keep) kept.insert(i);
    }
    rules_.reserve(kept.size());
    for (std::size_t i : kept) rules_.push_back(candidates[i].rule);
    // `kept` iterates ascending candidate index == descending confidence order.
    std::vector<Pattern> antecedents(rules_.size());
    for (std::size_t r = 0; r < rules_.size(); ++r) {
        antecedents[r].items = rules_[r].antecedent;
    }
    matcher_ = PatternMatchIndex::Build(0, antecedents);

    default_class_ = static_cast<ClassLabel>([&train] {
        const auto counts = train.ClassCounts();
        std::size_t best = 0;
        for (std::size_t c = 1; c < counts.size(); ++c) {
            if (counts[c] > counts[best]) best = c;
        }
        return best;
    }());
    return Status::Ok();
}

ClassLabel HarmonyClassifier::Predict(const std::vector<ItemId>& transaction) const {
    // Score each class by its top prediction_rules covering rules.
    std::vector<double> score;
    std::vector<std::size_t> used;
    std::size_t num_classes = 0;
    for (const HarmonyRule& r : rules_) {
        num_classes = std::max<std::size_t>(num_classes, r.consequent + 1);
    }
    num_classes = std::max<std::size_t>(num_classes, default_class_ + 1);
    score.assign(num_classes, 0.0);
    used.assign(num_classes, 0);

    matcher_.InitScratch(&scratch_);
    matcher_.MatchInto(transaction, &scratch_);
    // Rule ids ascend in confidence-descending order.
    std::sort(scratch_.matched.begin(), scratch_.matched.end());
    bool any = false;
    for (std::uint32_t id : scratch_.matched) {
        const HarmonyRule& r = rules_[id];
        if (used[r.consequent] >= config_.prediction_rules) continue;
        score[r.consequent] += r.confidence;
        used[r.consequent]++;
        any = true;
    }
    if (!any) return default_class_;
    std::size_t best = 0;
    for (std::size_t c = 1; c < score.size(); ++c) {
        if (score[c] > score[best]) best = c;
    }
    return static_cast<ClassLabel>(best);
}

double HarmonyClassifier::Accuracy(const TransactionDatabase& test) const {
    if (test.num_transactions() == 0) return 0.0;
    std::size_t correct = 0;
    for (std::size_t t = 0; t < test.num_transactions(); ++t) {
        if (Predict(test.transaction(t)) == test.label(t)) ++correct;
    }
    return static_cast<double>(correct) /
           static_cast<double>(test.num_transactions());
}

}  // namespace dfp
