#include "exp/experiment.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "core/feature_space.hpp"
#include "data/discretizer.hpp"
#include "ml/dtree/c45.hpp"
#include "ml/eval/cross_validation.hpp"
#include "ml/eval/feature_filter.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "ml/svm/svm.hpp"

namespace dfp {

const char* ModelVariantName(ModelVariant v) {
    switch (v) {
        case ModelVariant::kItemAll: return "Item_All";
        case ModelVariant::kItemFs: return "Item_FS";
        case ModelVariant::kItemRbf: return "Item_RBF";
        case ModelVariant::kPatAll: return "Pat_All";
        case ModelVariant::kPatFs: return "Pat_FS";
    }
    return "?";
}

const char* LearnerKindName(LearnerKind k) {
    switch (k) {
        case LearnerKind::kSvmLinear: return "svm-linear";
        case LearnerKind::kSvmRbf: return "svm-rbf";
        case LearnerKind::kC45: return "c4.5";
        case LearnerKind::kNaiveBayes: return "naive-bayes";
    }
    return "?";
}

std::unique_ptr<Classifier> MakeLearner(LearnerKind kind, ModelVariant variant,
                                        const ExperimentConfig& config,
                                        std::size_t num_features) {
    SmoConfig smo;
    smo.c = config.svm_c;
    if (variant == ModelVariant::kItemRbf || kind == LearnerKind::kSvmRbf) {
        smo.kernel.type = KernelType::kRbf;
        smo.kernel.gamma =
            config.rbf_gamma > 0.0
                ? config.rbf_gamma
                : 1.0 / static_cast<double>(std::max<std::size_t>(num_features, 1));
        return std::make_unique<SvmClassifier>(smo);
    }
    switch (kind) {
        case LearnerKind::kSvmLinear:
        case LearnerKind::kSvmRbf:
            return std::make_unique<SvmClassifier>(smo);
        case LearnerKind::kC45:
            return std::make_unique<C45Classifier>();
        case LearnerKind::kNaiveBayes:
            return std::make_unique<NaiveBayesClassifier>();
    }
    return nullptr;
}

TransactionDatabase DatasetToTransactions(const Dataset& data) {
    const MdlDiscretizer discretizer;
    const Dataset categorical = discretizer.FitApply(data);
    auto encoder = ItemEncoder::FromSchema(categorical);
    // FitApply leaves no numeric attribute behind, so FromSchema cannot fail.
    return TransactionDatabase::FromDataset(categorical, *encoder);
}

TransactionDatabase PrepareTransactions(const SyntheticSpec& spec) {
    return DatasetToTransactions(GenerateSynthetic(spec));
}

PipelineConfig MakePipelineConfig(const ExperimentConfig& config,
                                  bool feature_selection) {
    PipelineConfig pc;
    pc.miner.min_sup_rel = config.min_sup_rel;
    pc.miner.max_pattern_len = config.max_pattern_len;
    pc.miner.max_patterns = config.mining_budget;
    pc.miner_kind = MinerKind::kClosed;
    pc.per_class_mining = true;
    pc.feature_selection = feature_selection;
    pc.mmrfs.coverage_delta = config.coverage_delta;
    pc.mmrfs.relevance = RelevanceMeasure::kInfoGain;
    return pc;
}

namespace {

// Evaluates an Item_* variant on one train/test split; a learner failure
// lands in out->error.
double EvaluateItemFold(const TransactionDatabase& db,
                        const std::vector<std::size_t>& train_rows,
                        const std::vector<std::size_t>& test_rows,
                        ModelVariant variant, LearnerKind learner,
                        const ExperimentConfig& config, VariantOutcome* out) {
    const TransactionDatabase train = db.Subset(train_rows);
    const FeatureSpace space = FeatureSpace::ItemsOnly(db.num_items());

    std::vector<std::size_t> cols;
    if (variant == ModelVariant::kItemFs) {
        const auto keep = static_cast<std::size_t>(std::ceil(
            config.item_fs_keep_fraction * static_cast<double>(db.num_items())));
        cols = TopKItems(train, RelevanceMeasure::kInfoGain,
                         std::max<std::size_t>(keep, 1));
    } else {
        cols.resize(db.num_items());
        for (std::size_t i = 0; i < cols.size(); ++i) cols[i] = i;
    }

    auto model = MakeLearner(learner, variant, config, cols.size());
    const Status st = model->Train(space.Transform(train).SelectCols(cols),
                                   train.labels(), db.num_classes());
    if (!st.ok()) {
        out->error = st.ToString();
        return 0.0;
    }
    const TransactionDatabase test = db.Subset(test_rows);
    return model->Accuracy(space.Transform(test).SelectCols(cols), test.labels());
}

// Evaluates a Pat_* variant on one train/test split; accumulates stats.
double EvaluatePatternFold(const TransactionDatabase& db,
                           const std::vector<std::size_t>& train_rows,
                           const std::vector<std::size_t>& test_rows,
                           ModelVariant variant, LearnerKind learner,
                           const ExperimentConfig& config, VariantOutcome* out) {
    const TransactionDatabase train = db.Subset(train_rows);
    PatternClassifierPipeline pipeline(
        MakePipelineConfig(config, variant == ModelVariant::kPatFs));
    const Status st =
        pipeline.Train(train, MakeLearner(learner, variant, config, db.num_items()));
    if (!st.ok()) {
        out->error = st.ToString();
        return 0.0;
    }
    out->mean_candidates += static_cast<double>(pipeline.stats().num_candidates);
    out->mean_selected += static_cast<double>(pipeline.stats().num_selected);
    out->mine_select_seconds +=
        pipeline.stats().mine_seconds + pipeline.stats().select_seconds;

    return pipeline.Accuracy(db.Subset(test_rows));
}

}  // namespace

VariantOutcome RunVariantCv(const TransactionDatabase& db, ModelVariant variant,
                            LearnerKind learner, const ExperimentConfig& config) {
    VariantOutcome outcome;
    if (config.folds < 2) {
        outcome.error = StrFormat(
            "cross-validation needs at least 2 folds, got %zu", config.folds);
        return outcome;
    }
    Rng rng(config.seed);
    const auto folds = StratifiedFolds(db.labels(), config.folds, rng);

    double total_acc = 0.0;
    std::size_t evaluated = 0;
    for (std::size_t f = 0; f < folds.size(); ++f) {
        if (folds[f].empty()) continue;
        std::vector<std::size_t> train_rows;
        for (std::size_t g = 0; g < folds.size(); ++g) {
            if (g == f) continue;
            train_rows.insert(train_rows.end(), folds[g].begin(), folds[g].end());
        }
        const bool pattern_variant =
            variant == ModelVariant::kPatAll || variant == ModelVariant::kPatFs;
        const double acc =
            pattern_variant
                ? EvaluatePatternFold(db, train_rows, folds[f], variant,
                                      learner, config, &outcome)
                : EvaluateItemFold(db, train_rows, folds[f], variant, learner,
                                   config, &outcome);
        if (!outcome.error.empty()) return outcome;  // the fold failed to train
        total_acc += acc;
        ++evaluated;
        outcome.fold_accuracies.push_back(acc);
    }
    if (evaluated == 0) {
        outcome.error = "no non-empty folds";
        return outcome;
    }
    outcome.ok = true;
    outcome.accuracy = total_acc / static_cast<double>(evaluated);
    outcome.mean_candidates /= static_cast<double>(evaluated);
    outcome.mean_selected /= static_cast<double>(evaluated);
    return outcome;
}

}  // namespace dfp
