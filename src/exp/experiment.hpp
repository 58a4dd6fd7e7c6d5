// Shared experiment harness for the paper's tables and figures.
//
// Wires together dataset preparation (synthetic generation → MDL
// discretization → item encoding) and the five model variants of Tables 1–2:
//   Item_All  — all single features
//   Item_FS   — IG-selected single features
//   Item_RBF  — all single features under an RBF-kernel SVM
//   Pat_All   — single features + every mined frequent (closed) pattern
//   Pat_FS    — single features + MMRFS-selected patterns
// evaluated with stratified k-fold cross validation, mining and selection
// redone inside every training fold (no test leakage).
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "data/transaction_db.hpp"
#include "ml/classifier.hpp"

namespace dfp {

enum class ModelVariant { kItemAll, kItemFs, kItemRbf, kPatAll, kPatFs };
enum class LearnerKind { kSvmLinear, kSvmRbf, kC45, kNaiveBayes };

const char* ModelVariantName(ModelVariant v);
const char* LearnerKindName(LearnerKind k);

struct ExperimentConfig {
    std::size_t folds = 10;
    std::uint64_t seed = 42;
    /// Per-class-partition relative min_sup for pattern mining.
    double min_sup_rel = 0.10;
    std::size_t max_pattern_len = 5;
    /// MMRFS database-coverage δ (small values regularize: every extra unit
    /// of required coverage admits weaker patterns).
    std::size_t coverage_delta = 2;
    /// Item_FS keeps the top fraction of items by information gain.
    double item_fs_keep_fraction = 0.5;
    double svm_c = 1.0;
    /// RBF kernel width; <= 0 means "auto": 1/num_features (LIBSVM default).
    double rbf_gamma = 0.0;
    /// Mining abort budget per fold.
    std::size_t mining_budget = 2'000'000;
};

/// One variant × learner CV outcome.
struct VariantOutcome {
    bool ok = false;
    std::string error;
    double accuracy = 0.0;
    /// Accuracy on each evaluated fold, in fold order (accuracy is their mean).
    std::vector<double> fold_accuracies;
    /// Mean pattern-candidate / selected-feature counts across folds
    /// (0 for Item variants).
    double mean_candidates = 0.0;
    double mean_selected = 0.0;
    /// Total mining + selection seconds across folds.
    double mine_select_seconds = 0.0;
};

/// Builds the learner for a variant (Item_RBF forces the RBF SVM).
/// `num_features` sizes the auto RBF gamma (1/d) when config.rbf_gamma <= 0.
std::unique_ptr<Classifier> MakeLearner(LearnerKind kind, ModelVariant variant,
                                        const ExperimentConfig& config,
                                        std::size_t num_features);

/// Generates the spec'd dataset, MDL-discretizes numeric attributes and
/// encodes it as a transaction database.
TransactionDatabase PrepareTransactions(const SyntheticSpec& spec);

/// Discretizes + encodes an already-materialized dataset.
TransactionDatabase DatasetToTransactions(const Dataset& data);

/// Runs stratified k-fold CV of one variant with one learner. Fewer than 2
/// folds, or a fold whose mining or learner fails, leaves `ok` false and says
/// why in `error`.
VariantOutcome RunVariantCv(const TransactionDatabase& db, ModelVariant variant,
                            LearnerKind learner, const ExperimentConfig& config);

/// PipelineConfig matching `config` for the Pat_* variants.
PipelineConfig MakePipelineConfig(const ExperimentConfig& config,
                                  bool feature_selection);

}  // namespace dfp
