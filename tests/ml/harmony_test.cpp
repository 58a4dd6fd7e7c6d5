#include "ml/rules/harmony.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/rules/cba.hpp"

namespace dfp {
namespace {

// Item 0 ⇒ class 0, item 2 ⇒ class 1, item 1 is noise.
TransactionDatabase Toy() {
    return TransactionDatabase::FromTransactions(
        {
            {0, 1}, {0}, {0, 1}, {0},      // class 0
            {2, 1}, {2}, {2, 1}, {2, 0},  // class 1
        },
        {0, 0, 0, 0, 1, 1, 1, 1}, 3, 2);
}

HarmonyConfig ToyConfig() {
    HarmonyConfig config;
    config.miner.min_sup_abs = 2;
    return config;
}

TEST(HarmonyTest, LearnsObviousRules) {
    HarmonyClassifier harmony(ToyConfig());
    ASSERT_TRUE(harmony.Train(Toy()).ok());
    EXPECT_FALSE(harmony.rules().empty());
    EXPECT_EQ(harmony.Predict({2}), 1u);
    EXPECT_EQ(harmony.Predict({0}), 0u);
    EXPECT_GE(harmony.Accuracy(Toy()), 7.0 / 8.0);
}

TEST(HarmonyTest, EveryInstanceKeepsACoveringRule) {
    const auto db = Toy();
    HarmonyClassifier harmony(ToyConfig());
    ASSERT_TRUE(harmony.Train(db).ok());
    // Instance-centric guarantee: every instance that any candidate rule
    // correctly covers retains at least one correct covering rule.
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        bool covered = false;
        for (const auto& rule : harmony.rules()) {
            if (rule.consequent == db.label(t) &&
                std::includes(db.transaction(t).begin(), db.transaction(t).end(),
                              rule.antecedent.begin(), rule.antecedent.end())) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered) << "instance " << t;
    }
}

TEST(HarmonyTest, RulesSortedByConfidence) {
    HarmonyClassifier harmony(ToyConfig());
    ASSERT_TRUE(harmony.Train(Toy()).ok());
    for (std::size_t i = 1; i < harmony.rules().size(); ++i) {
        EXPECT_GE(harmony.rules()[i - 1].confidence,
                  harmony.rules()[i].confidence);
    }
}

TEST(HarmonyTest, DefaultClassWhenNothingFires) {
    HarmonyClassifier harmony(ToyConfig());
    ASSERT_TRUE(harmony.Train(Toy()).ok());
    const ClassLabel c = harmony.Predict({});
    EXPECT_TRUE(c == 0 || c == 1);
}

TEST(HarmonyTest, EmptyDatabaseRejected) {
    HarmonyClassifier harmony;
    EXPECT_FALSE(
        harmony.Train(TransactionDatabase::FromTransactions({}, {}, 3, 2)).ok());
}

TEST(HarmonyTest, ComparableToCbaOnSyntheticData) {
    SyntheticSpec spec;
    spec.rows = 400;
    spec.attributes = 10;
    spec.arity = 3;
    spec.seed = 12;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    const auto db = TransactionDatabase::FromDataset(data, *encoder);

    HarmonyConfig hc;
    hc.miner.min_sup_rel = 0.1;
    HarmonyClassifier harmony(hc);
    ASSERT_TRUE(harmony.Train(db).ok());

    CbaConfig cc;
    cc.miner.min_sup_rel = 0.1;
    CbaClassifier cba(cc);
    ASSERT_TRUE(cba.Train(db).ok());

    const auto counts = db.ClassCounts();
    const double majority =
        static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
        static_cast<double>(db.num_transactions());
    EXPECT_GT(harmony.Accuracy(db), majority);
    // Both rule learners should be in the same ballpark on training data.
    EXPECT_GT(harmony.Accuracy(db), cba.Accuracy(db) - 0.15);
}

TEST(HarmonyTest, MoreRulesPerInstanceKeepsMore) {
    const auto db = Toy();
    HarmonyConfig one = ToyConfig();
    one.rules_per_instance = 1;
    HarmonyConfig three = ToyConfig();
    three.rules_per_instance = 3;
    HarmonyClassifier a(one);
    HarmonyClassifier b(three);
    ASSERT_TRUE(a.Train(db).ok());
    ASSERT_TRUE(b.Train(db).ok());
    EXPECT_GE(b.rules().size(), a.rules().size());
}

TEST(HarmonyTest, PredictScoresTheRulesFoundByScan) {
    // The matcher-backed Predict equals scoring by a subset test over rules()
    // in confidence order, top prediction_rules per class.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        SyntheticSpec spec;
        spec.rows = 300;
        spec.classes = 3;
        spec.attributes = 8;
        spec.arity = 3;
        spec.seed = seed;
        const Dataset data = GenerateSynthetic(spec);
        const auto db = TransactionDatabase::FromDataset(
            data, *ItemEncoder::FromSchema(data));
        HarmonyConfig config;
        config.miner.min_sup_rel = 0.05;
        config.rules_per_instance = 3;
        config.prediction_rules = 2;
        HarmonyClassifier harmony(config);
        ASSERT_TRUE(harmony.Train(db).ok());
        ASSERT_GT(harmony.rules().size(), 1u);
        auto scan = [&](const std::vector<ItemId>& txn) {
            std::vector<double> score(3, 0.0);
            std::vector<std::size_t> used(3, 0);
            bool any = false;
            for (const HarmonyRule& r : harmony.rules()) {
                if (used[r.consequent] >= config.prediction_rules) continue;
                if (std::includes(txn.begin(), txn.end(), r.antecedent.begin(),
                                  r.antecedent.end())) {
                    score[r.consequent] += r.confidence;
                    used[r.consequent]++;
                    any = true;
                }
            }
            if (!any) return harmony.default_class();
            return static_cast<ClassLabel>(
                std::max_element(score.begin(), score.end()) - score.begin());
        };
        for (std::size_t t = 0; t < db.num_transactions(); ++t) {
            ASSERT_EQ(harmony.Predict(db.transaction(t)), scan(db.transaction(t)))
                << "row " << t;
        }
    }
}

}  // namespace
}  // namespace dfp
