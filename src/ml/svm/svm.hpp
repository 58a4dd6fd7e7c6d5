// Multi-class SVM classifier (one-vs-one with majority voting, LIBSVM-style).
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

}  // namespace dfp
