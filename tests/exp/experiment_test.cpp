#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/feature_space.hpp"
#include "core/mmrfs.hpp"
#include "exp/scalability.hpp"
#include "fpm/closed_miner.hpp"
#include "ml/eval/cross_validation.hpp"
#include "ml/svm/svm.hpp"

namespace dfp {
namespace {

SyntheticSpec TinySpec() {
    SyntheticSpec spec;
    spec.rows = 150;
    spec.classes = 2;
    spec.attributes = 6;
    spec.arity = 3;
    spec.seed = 3;
    return spec;
}

TEST(ExperimentTest, NamesAreStable) {
    EXPECT_STREQ(ModelVariantName(ModelVariant::kItemAll), "Item_All");
    EXPECT_STREQ(ModelVariantName(ModelVariant::kPatFs), "Pat_FS");
    EXPECT_STREQ(LearnerKindName(LearnerKind::kC45), "c4.5");
    EXPECT_STREQ(LearnerKindName(LearnerKind::kSvmRbf), "svm-rbf");
}

TEST(ExperimentTest, PrepareTransactionsIsDeterministic) {
    const auto a = PrepareTransactions(TinySpec());
    const auto b = PrepareTransactions(TinySpec());
    ASSERT_EQ(a.num_transactions(), b.num_transactions());
    ASSERT_EQ(a.num_items(), b.num_items());
    for (std::size_t t = 0; t < a.num_transactions(); ++t) {
        EXPECT_EQ(a.transaction(t), b.transaction(t));
        EXPECT_EQ(a.label(t), b.label(t));
    }
}

TEST(ExperimentTest, MakeLearnerRespectsVariantAndKind) {
    ExperimentConfig config;
    auto rbf = MakeLearner(LearnerKind::kSvmLinear, ModelVariant::kItemRbf,
                           config, 20);
    EXPECT_NE(rbf->Name().find("rbf"), std::string::npos);
    auto linear =
        MakeLearner(LearnerKind::kSvmLinear, ModelVariant::kItemAll, config, 20);
    EXPECT_NE(linear->Name().find("linear"), std::string::npos);
    auto tree = MakeLearner(LearnerKind::kC45, ModelVariant::kPatFs, config, 20);
    EXPECT_EQ(tree->Name(), "c4.5");
    auto nb =
        MakeLearner(LearnerKind::kNaiveBayes, ModelVariant::kPatAll, config, 20);
    EXPECT_EQ(nb->Name(), "naive-bayes");
}

TEST(ExperimentTest, AutoRbfGammaScalesWithDimension) {
    ExperimentConfig config;
    config.rbf_gamma = 0.0;  // auto
    auto svm_small = MakeLearner(LearnerKind::kSvmRbf, ModelVariant::kItemRbf,
                                 config, 10);
    auto svm_large = MakeLearner(LearnerKind::kSvmRbf, ModelVariant::kItemRbf,
                                 config, 1000);
    const auto* a = dynamic_cast<SvmClassifier*>(svm_small.get());
    const auto* b = dynamic_cast<SvmClassifier*>(svm_large.get());
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_DOUBLE_EQ(a->config().kernel.gamma, 0.1);
    EXPECT_DOUBLE_EQ(b->config().kernel.gamma, 0.001);
}

TEST(ExperimentTest, MakePipelineConfigMapsFields) {
    ExperimentConfig config;
    config.min_sup_rel = 0.21;
    config.max_pattern_len = 3;
    config.coverage_delta = 7;
    const PipelineConfig with_fs = MakePipelineConfig(config, true);
    EXPECT_DOUBLE_EQ(with_fs.miner.min_sup_rel, 0.21);
    EXPECT_EQ(with_fs.miner.max_pattern_len, 3u);
    EXPECT_TRUE(with_fs.feature_selection);
    EXPECT_EQ(with_fs.mmrfs.coverage_delta, 7u);
    EXPECT_FALSE(MakePipelineConfig(config, false).feature_selection);
}

TEST(ExperimentTest, VariantCvIsDeterministic) {
    const auto db = PrepareTransactions(TinySpec());
    ExperimentConfig config;
    config.folds = 3;
    const auto a = RunVariantCv(db, ModelVariant::kPatFs, LearnerKind::kC45, config);
    const auto b = RunVariantCv(db, ModelVariant::kPatFs, LearnerKind::kC45, config);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
    EXPECT_DOUBLE_EQ(a.mean_selected, b.mean_selected);
}

TEST(ExperimentTest, VariantCvRejectsZeroFolds) {
    const auto db = PrepareTransactions(TinySpec());
    ExperimentConfig config;
    config.folds = 0;
    for (ModelVariant variant : {ModelVariant::kItemAll, ModelVariant::kPatFs}) {
        const auto out = RunVariantCv(db, variant, LearnerKind::kC45, config);
        EXPECT_FALSE(out.ok) << ModelVariantName(variant);
        EXPECT_NE(out.error.find("at least 2 folds"), std::string::npos)
            << out.error;
        EXPECT_TRUE(out.fold_accuracies.empty());
    }
}

TEST(ExperimentTest, VariantCvRejectsOneFold) {
    // One fold leaves every fold's training split empty.
    const auto db = PrepareTransactions(TinySpec());
    ExperimentConfig config;
    config.folds = 1;
    for (ModelVariant variant :
         {ModelVariant::kItemAll, ModelVariant::kItemFs, ModelVariant::kItemRbf,
          ModelVariant::kPatAll, ModelVariant::kPatFs}) {
        for (LearnerKind learner : {LearnerKind::kSvmLinear, LearnerKind::kC45}) {
            const auto out = RunVariantCv(db, variant, learner, config);
            EXPECT_FALSE(out.ok) << ModelVariantName(variant) << " / "
                                 << LearnerKindName(learner);
            EXPECT_FALSE(out.error.empty());
            EXPECT_TRUE(out.fold_accuracies.empty());
        }
    }
}

TEST(ExperimentTest, ItemFoldLearnerFailureIsAnError) {
    // A one-class database: the SVM refuses to train on every fold, and the
    // outcome must say so instead of averaging 0.0 accuracies.
    std::vector<std::vector<ItemId>> txns;
    std::vector<ClassLabel> labels;
    for (ItemId t = 0; t < 20; ++t) {
        txns.push_back({static_cast<ItemId>(t % 3)});
        labels.push_back(0);
    }
    const auto db = TransactionDatabase::FromTransactions(txns, labels, 3, 1);
    ExperimentConfig config;
    config.folds = 4;
    for (ModelVariant variant :
         {ModelVariant::kItemAll, ModelVariant::kItemFs, ModelVariant::kItemRbf}) {
        const auto out =
            RunVariantCv(db, variant, LearnerKind::kSvmLinear, config);
        EXPECT_FALSE(out.ok) << ModelVariantName(variant);
        EXPECT_NE(out.error.find("at least two classes"), std::string::npos)
            << out.error;
    }
}

TEST(ExperimentTest, VariantCvLearnsPerfectlyLearnableData) {
    // Item 0 marks class 1 and item 1 marks class 0.
    std::vector<std::vector<ItemId>> txns;
    std::vector<ClassLabel> labels;
    for (std::size_t i = 0; i < 40; ++i) {
        txns.push_back({static_cast<ItemId>(i < 20 ? 1 : 0)});
        labels.push_back(i < 20 ? 0 : 1);
    }
    const auto db = TransactionDatabase::FromTransactions(txns, labels, 2, 2);
    ExperimentConfig config;
    config.folds = 5;
    for (ModelVariant variant : {ModelVariant::kItemAll, ModelVariant::kPatFs}) {
        const auto out = RunVariantCv(db, variant, LearnerKind::kC45, config);
        ASSERT_TRUE(out.ok) << ModelVariantName(variant) << ": " << out.error;
        EXPECT_EQ(out.fold_accuracies.size(), 5u);
        EXPECT_GT(out.accuracy, 0.9) << ModelVariantName(variant);
    }
}

TEST(ExperimentTest, VariantCvSkipsEmptyFolds) {
    // More folds than rows: the empty folds are not averaged in as 0.0.
    std::vector<std::vector<ItemId>> txns;
    std::vector<ClassLabel> labels;
    for (std::size_t i = 0; i < 6; ++i) {
        txns.push_back({static_cast<ItemId>(i % 2)});
        labels.push_back(static_cast<ClassLabel>(i % 2));
    }
    const auto db = TransactionDatabase::FromTransactions(txns, labels, 2, 2);
    ExperimentConfig config;
    config.folds = 10;
    const auto out =
        RunVariantCv(db, ModelVariant::kItemAll, LearnerKind::kC45, config);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.fold_accuracies.size(), 6u);
    EXPECT_DOUBLE_EQ(out.accuracy, 1.0);
}

TEST(ScalabilityTest, SweepRowsAreWellFormed) {
    const auto db = PrepareTransactions(TinySpec());
    ScalabilityConfig config;
    config.min_sups = {60, 90};
    config.probe_min_sup_one = false;
    config.max_features = 50;
    const auto rows = RunScalability(db, config);
    ASSERT_EQ(rows.size(), 2u);
    for (const auto& row : rows) {
        EXPECT_TRUE(row.feasible) << row.note;
        EXPECT_TRUE(row.note.empty()) << row.note;
        EXPECT_EQ(row.smo_nonconverged, 0u);
        EXPECT_GE(row.svm_accuracy, 0.3);
        EXPECT_GE(row.c45_accuracy, 0.3);
        EXPECT_LE(row.selected, config.max_features);
    }
    // Fewer patterns at the higher threshold (anti-monotonicity).
    EXPECT_GE(rows[0].patterns, rows[1].patterns);
}

TEST(ScalabilityTest, SvmColumnEqualsSvmTrainedOnTheSameSplit) {
    const auto db = PrepareTransactions(TinySpec());
    ScalabilityConfig config;
    config.min_sups = {60};
    config.probe_min_sup_one = false;
    config.max_features = 50;
    const auto rows = RunScalability(db, config);
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_TRUE(rows[0].feasible) << rows[0].note;

    // The harness's split (fold 0 of 5 held out) and selection, rebuilt here.
    Rng rng(config.seed);
    const auto folds = StratifiedFolds(db.labels(), 5, rng);
    std::vector<std::size_t> train_rows;
    for (std::size_t f = 1; f < folds.size(); ++f) {
        train_rows.insert(train_rows.end(), folds[f].begin(), folds[f].end());
    }
    const TransactionDatabase train = db.Subset(train_rows);
    const TransactionDatabase test = db.Subset(folds[0]);
    MinerConfig mc;
    mc.min_sup_abs = 60;
    mc.max_pattern_len = config.max_pattern_len;
    mc.max_patterns = config.pattern_budget;
    mc.include_singletons = false;
    auto patterns = ClosedMiner().Mine(db, mc);
    ASSERT_TRUE(patterns.ok()) << patterns.status();
    AttachMetadata(db, &*patterns);
    MmrfsConfig fs;
    fs.coverage_delta = config.coverage_delta;
    fs.max_features = config.max_features;
    const MmrfsResult selection = RunMmrfs(db, *patterns, fs);
    std::vector<Pattern> selected;
    for (std::size_t idx : selection.selected) selected.push_back((*patterns)[idx]);
    ASSERT_EQ(selected.size(), rows[0].selected);
    const FeatureSpace space = FeatureSpace::Build(db.num_items(), selected);

    SvmClassifier svm;
    ASSERT_TRUE(svm.Train(space.Transform(train), train.labels(),
                          train.num_classes())
                    .ok());
    EXPECT_EQ(rows[0].svm_accuracy,
              svm.Accuracy(space.Transform(test), test.labels()));
}

TEST(ScalabilityTest, LearnerFailureLandsInNote) {
    // One class: the SVM cannot train, and its Status must reach the row.
    std::vector<std::vector<ItemId>> rows;
    for (std::size_t t = 0; t < 40; ++t) {
        rows.push_back({0, static_cast<ItemId>(1 + t % 3)});
    }
    const auto db = TransactionDatabase::FromTransactions(
        std::move(rows), std::vector<ClassLabel>(40, 0), 4, 1);
    ScalabilityConfig config;
    config.min_sups = {10};
    config.probe_min_sup_one = false;
    const auto sweep = RunScalability(db, config);
    ASSERT_EQ(sweep.size(), 1u);
    EXPECT_TRUE(sweep[0].feasible);
    EXPECT_EQ(sweep[0].svm_accuracy, 0.0);
    EXPECT_NE(sweep[0].note.find("at least two classes"), std::string::npos)
        << sweep[0].note;
}

TEST(ScalabilityTest, PrintShowsSmoCountAndNotes) {
    const auto db = PrepareTransactions(TinySpec());
    ScalabilityRow row;
    row.min_sup = 60;
    row.feasible = true;
    row.patterns = 12;
    row.selected = 5;
    row.smo_nonconverged = 7;
    row.note = "svm-linear: Cancelled";
    ::testing::internal::CaptureStdout();
    PrintScalability("tiny", db, {row});
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("SMO unconv."), std::string::npos) << out;
    EXPECT_NE(out.find("| 7"), std::string::npos) << out;
    EXPECT_NE(out.find("min_sup=60: svm-linear: Cancelled"), std::string::npos)
        << out;
}

TEST(ScalabilityTest, MinSupOneProbeReportsBudget) {
    const auto db = PrepareTransactions(TinySpec());
    ScalabilityConfig config;
    config.min_sups = {};
    config.pattern_budget = 50;  // force the probe to trip
    const auto rows = RunScalability(db, config);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].min_sup, 1u);
    EXPECT_FALSE(rows[0].feasible);
    EXPECT_NE(rows[0].note.find("budget"), std::string::npos);
}

TEST(ScalabilityTest, MinSupOneProbeCountsEveryOccurringItemset) {
    // Within budget, the min_sup = 1 probe enumerates exactly the distinct
    // non-empty subsets of the rows.
    const auto db = PrepareTransactions(TinySpec());
    std::set<Itemset> occurring;
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        const auto& row = db.transaction(t);
        ASSERT_LE(row.size(), 10u);
        for (std::uint32_t mask = 1; mask < (1u << row.size()); ++mask) {
            Itemset subset;
            for (std::size_t k = 0; k < row.size(); ++k) {
                if ((mask >> k) & 1u) subset.push_back(row[k]);
            }
            occurring.insert(std::move(subset));
        }
    }
    ScalabilityConfig config;
    config.min_sups = {};
    config.pattern_budget = occurring.size();
    const auto rows = RunScalability(db, config);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_TRUE(rows[0].feasible) << rows[0].note;
    EXPECT_EQ(rows[0].patterns, occurring.size());
}

}  // namespace
}  // namespace dfp
