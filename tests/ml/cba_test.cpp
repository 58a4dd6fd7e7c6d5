#include "ml/rules/cba.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/encoder.hpp"
#include "data/synthetic.hpp"

namespace dfp {
namespace {

TransactionDatabase SyntheticDb(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.rows = 300;
    spec.attributes = 8;
    spec.arity = 3;
    spec.seed = seed;
    const Dataset data = GenerateSynthetic(spec);
    auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

// Item 0 ⇒ class 0, item 2 ⇒ class 1, item 1 is noise.
TransactionDatabase Toy() {
    return TransactionDatabase::FromTransactions(
        {
            {0, 1}, {0}, {0, 1}, {0},      // class 0
            {2, 1}, {2}, {2, 1}, {2, 0},  // class 1 (one overlap row)
        },
        {0, 0, 0, 0, 1, 1, 1, 1}, 3, 2);
}

TEST(CbaTest, LearnsObviousRules) {
    CbaConfig config;
    config.miner.min_sup_abs = 2;
    CbaClassifier cba(config);
    ASSERT_TRUE(cba.Train(Toy()).ok());
    EXPECT_FALSE(cba.rules().empty());
    EXPECT_EQ(cba.Predict({2}), 1u);
    EXPECT_EQ(cba.Predict({0}), 0u);
}

TEST(CbaTest, RulesSortedByConfidence) {
    CbaConfig config;
    config.miner.min_sup_abs = 2;
    CbaClassifier cba(config);
    ASSERT_TRUE(cba.Train(Toy()).ok());
    const auto& rules = cba.rules();
    for (std::size_t i = 1; i < rules.size(); ++i) {
        EXPECT_GE(rules[i - 1].confidence, rules[i].confidence);
    }
}

TEST(CbaTest, MinConfidenceFiltersWeakRules) {
    CbaConfig config;
    config.miner.min_sup_abs = 2;
    config.min_confidence = 0.99;
    CbaClassifier cba(config);
    ASSERT_TRUE(cba.Train(Toy()).ok());
    for (const auto& rule : cba.rules()) {
        EXPECT_GE(rule.confidence, 0.99);
    }
}

TEST(CbaTest, DefaultClassUsedWhenNoRuleFires) {
    CbaConfig config;
    config.miner.min_sup_abs = 2;
    CbaClassifier cba(config);
    ASSERT_TRUE(cba.Train(Toy()).ok());
    // A transaction with no known item falls back to the default class.
    const ClassLabel c = cba.Predict({});
    EXPECT_TRUE(c == 0 || c == 1);
}

TEST(CbaTest, TrainingAccuracyDecent) {
    CbaConfig config;
    config.miner.min_sup_abs = 2;
    CbaClassifier cba(config);
    const auto db = Toy();
    ASSERT_TRUE(cba.Train(db).ok());
    EXPECT_GE(cba.Accuracy(db), 7.0 / 8.0);
}

TEST(CbaTest, EmptyDatabaseRejected) {
    CbaClassifier cba;
    const auto empty =
        TransactionDatabase::FromTransactions({}, {}, 3, 2);
    EXPECT_FALSE(cba.Train(empty).ok());
}

TEST(CbaTest, WorksOnSyntheticData) {
    SyntheticSpec spec;
    spec.rows = 300;
    spec.attributes = 8;
    spec.arity = 3;
    spec.seed = 9;
    const Dataset data = GenerateSynthetic(spec);
    auto encoder = ItemEncoder::FromSchema(data);
    ASSERT_TRUE(encoder.ok());
    const auto db = TransactionDatabase::FromDataset(data, *encoder);
    CbaConfig config;
    config.miner.min_sup_rel = 0.1;
    CbaClassifier cba(config);
    ASSERT_TRUE(cba.Train(db).ok());
    // Beats the majority-class baseline on its own training data.
    const auto counts = db.ClassCounts();
    const double majority =
        static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
        static_cast<double>(db.num_transactions());
    EXPECT_GT(cba.Accuracy(db), majority);
}

TEST(CbaTest, PredictFiresFirstRuleFoundByScan) {
    // The matcher-backed Predict equals walking rules() in rank order with a
    // subset test, on training rows, rows of another seed, and rows carrying
    // items beyond the training universe.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto db = SyntheticDb(seed);
        CbaConfig config;
        config.miner.min_sup_rel = 0.05;
        CbaClassifier cba(config);
        ASSERT_TRUE(cba.Train(db).ok());
        ASSERT_GT(cba.rules().size(), 1u);
        auto scan = [&cba](const std::vector<ItemId>& txn) {
            for (const CbaRule& rule : cba.rules()) {
                if (std::includes(txn.begin(), txn.end(), rule.antecedent.begin(),
                                  rule.antecedent.end())) {
                    return rule.consequent;
                }
            }
            return cba.default_class();
        };
        const auto other = SyntheticDb(seed + 100);
        for (const auto* rows : {&db, &other}) {
            for (std::size_t t = 0; t < rows->num_transactions(); ++t) {
                std::vector<ItemId> txn = rows->transaction(t);
                ASSERT_EQ(cba.Predict(txn), scan(txn)) << "row " << t;
                txn.push_back(static_cast<ItemId>(db.num_items() + 3));
                ASSERT_EQ(cba.Predict(txn), scan(txn)) << "row " << t;
            }
        }
    }
}

}  // namespace
}  // namespace dfp
