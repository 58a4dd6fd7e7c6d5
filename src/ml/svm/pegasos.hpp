// Pegasos: primal sub-gradient linear SVM (Shalev-Shwartz et al., ICML'07).
//
// The SMO solver is exact but quadratic-ish in n; the scalability experiments
// (Tables 3–5, up to 20 000 rows × 26 classes) need a linear-time linear SVM,
// which is what LIBLINEAR would provide in the paper's setting. Pegasos makes
// one update per sampled example, touching only its set features, and
// converges in a few epochs on the sparse binary feature spaces this
// framework produces. Multiclass is one-vs-rest with argmax over decision
// values.
#pragma once

#include <vector>

#include "ml/classifier.hpp"

namespace dfp {

struct PegasosConfig {
    double lambda = 1e-4;    ///< L2 regularization (≈ 1/(C·n))
    std::size_t epochs = 30;  ///< passes over the data
    std::uint64_t seed = 19;
    /// Deadline / cancellation limits, checked once per epoch. A deadline
    /// stops training early with the current (still valid) iterate; a fired
    /// CancelToken makes Train return Cancelled.
    ExecutionBudget budget;
};

/// One-vs-rest linear SVM trained with Pegasos SGD.
class PegasosClassifier : public Classifier {
  public:
    explicit PegasosClassifier(PegasosConfig config = {}) : config_(config) {}

    std::string Name() const override { return "svm-pegasos"; }
    std::string TypeId() const override { return "pegasos"; }
    Status Train(const FeatureMatrix& x, const std::vector<ClassLabel>& y,
                 std::size_t num_classes) override;
    ClassLabel Predict(std::span<const std::uint64_t> row) const override;
    Status SaveModel(std::ostream& out) const override;
    Status LoadModel(std::istream& in, std::size_t cols) override;
    void SetExecutionBudget(const ExecutionBudget& budget) override {
        config_.budget = budget;
    }

    /// Decision value of the one-vs-rest machine for class c: the bias plus
    /// the weights of the row's set bits, in column order.
    double Decision(std::span<const std::uint64_t> row, ClassLabel c) const;

  private:
    PegasosConfig config_;
    std::size_t num_classes_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> weights_;  ///< row-major [class][feature]
    std::vector<double> bias_;
};

}  // namespace dfp
