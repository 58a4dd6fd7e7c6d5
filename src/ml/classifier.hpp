// Learner interface: any model that trains on a FeatureMatrix plugs into the
// frequent-pattern pipeline (one of the framework's selling points over
// associative classification, which is tied to rule models). A learner sees
// only the 0/1 space B^{d'}: it trains on the matrix's covers and predicts one
// packed row (ml/feature_matrix.hpp), so no instance is ever a vector of
// doubles.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/status.hpp"
#include "data/dataset.hpp"
#include "ml/feature_matrix.hpp"

namespace dfp {

/// Abstract supervised classifier: trains on the 0/1 FeatureMatrix of B^{d'}
/// and predicts one packed row of it.
class Classifier {
  public:
    virtual ~Classifier() = default;

    virtual std::string Name() const = 0;

    /// Stable identifier used by model (de)serialization ("svm", "c4.5",
    /// "nb"); empty when the learner is not serializable.
    virtual std::string TypeId() const { return ""; }

    /// Persists the trained model. Default: not serializable.
    virtual Status SaveModel(std::ostream& out) const;
    /// Restores a model saved by SaveModel for rows of `cols` features, and
    /// rejects one that reads any other width or could not be evaluated
    /// (Predict then never reads outside its row and always returns).
    /// Default: not serializable.
    virtual Status LoadModel(std::istream& in, std::size_t cols);

    /// Trains on X (one row per instance) with labels in [0, num_classes).
    virtual Status Train(const FeatureMatrix& x, const std::vector<ClassLabel>& y,
                         std::size_t num_classes) = 0;

    /// Installs execution limits for subsequent Train() calls. Budget-aware
    /// learners (the SVM's SMO solves) honour the deadline / cancel token
    /// cooperatively; the default ignores it.
    virtual void SetExecutionBudget(const ExecutionBudget& /*budget*/) {}

    /// Requests `num_threads` workers for subsequent Train() calls (0 =
    /// hardware_concurrency). Learners with internal parallelism (the OvO
    /// SVM) honour it; the default ignores it. Parallel learners must keep
    /// trained models identical across thread counts.
    virtual void SetNumThreads(std::size_t /*num_threads*/) {}

    /// Predicts the label of one packed row of the training width
    /// (PackedWords(cols) words).
    virtual ClassLabel Predict(std::span<const std::uint64_t> row) const = 0;

    /// Fraction of rows of `x` predicted as `y`: the matrix is packed once
    /// and every row predicted.
    double Accuracy(const FeatureMatrix& x, const std::vector<ClassLabel>& y) const {
        if (x.rows() == 0) return 0.0;
        const PackedRows rows(x);
        std::size_t correct = 0;
        for (std::size_t r = 0; r < rows.rows(); ++r) {
            if (Predict(rows.Row(r)) == y[r]) ++correct;
        }
        return static_cast<double>(correct) / static_cast<double>(x.rows());
    }
};

/// The input check every learner's Train runs first: one label per row of
/// `x`, each in [0, num_classes). Returns InvalidArgument naming `learner`
/// otherwise.
Status ValidateTrainingInput(const char* learner, const FeatureMatrix& x,
                             const std::vector<ClassLabel>& y,
                             std::size_t num_classes);

}  // namespace dfp
