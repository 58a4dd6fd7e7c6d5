// Multi-class SVM classifier (one-vs-one with majority voting, LIBSVM-style)
// plus a small cross-validated grid search for C / γ, mirroring the paper's
// "10-fold cross validation on each training set and picked the best model".
#pragma once

#include <vector>

#include "ml/classifier.hpp"
#include "ml/svm/smo.hpp"

namespace dfp {

/// One-vs-one SVM over all class pairs; prediction by pairwise voting with
/// decision-value-sum tie breaking.
class SvmClassifier : public Classifier {
  public:
    explicit SvmClassifier(SmoConfig config = {}) : config_(config) {}

    std::string Name() const override;
    std::string TypeId() const override { return "svm"; }
    Status Train(const FeatureMatrix& x, const std::vector<ClassLabel>& y,
                 std::size_t num_classes) override;
    ClassLabel Predict(std::span<const std::uint64_t> row) const override;
    Status SaveModel(std::ostream& out) const override;
    Status LoadModel(std::istream& in, std::size_t cols) override;
    void SetExecutionBudget(const ExecutionBudget& budget) override {
        config_.budget = budget;
    }
    void SetNumThreads(std::size_t num_threads) override {
        config_.num_threads = num_threads;
    }

    const SmoConfig& config() const { return config_; }

  private:
    struct PairModel {
        ClassLabel positive;
        ClassLabel negative;
        SmoModel model;
    };

    SmoConfig config_;
    std::size_t num_classes_ = 0;
    std::vector<PairModel> machines_;
};

/// Grid of SMO configs to search; empty gamma grid keeps the kernel's gamma.
struct SvmGrid {
    std::vector<double> c_values = {0.1, 1.0, 10.0};
    std::vector<double> gamma_values;  ///< only meaningful for RBF
    std::size_t folds = 3;
    std::uint64_t seed = 13;
    /// Worker threads for evaluating grid candidates concurrently (each
    /// candidate's k-fold CV is independent; the winner is picked by a
    /// deterministic scan, so the choice is thread-count invariant). Nested
    /// parallelism is the caller's budget to spend: candidates inherit
    /// base.num_threads for their OvO solves. 1 = serial; 0 = hardware.
    std::size_t num_threads = 1;
    /// Limits for the whole search: candidates stop being evaluated once the
    /// deadline passes or the token fires; the best config so far is returned.
    ExecutionBudget budget;
};

/// Picks the config with the best k-fold CV accuracy on (x, y). Under a
/// breached grid budget, returns the best of the candidates evaluated so far
/// (falling back to the first candidate when none completed).
SmoConfig GridSearchSvm(const FeatureMatrix& x, const std::vector<ClassLabel>& y,
                        std::size_t num_classes, const SmoConfig& base,
                        const SvmGrid& grid);

}  // namespace dfp
