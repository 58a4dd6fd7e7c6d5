// Bernoulli naive Bayes over binary features.
//
// A third learner demonstrating that the framework's augmented feature space
// plugs into any model ("any learning algorithm can be used" — Section 5).
#pragma once

#include <vector>

#include "ml/classifier.hpp"

namespace dfp {

/// Bernoulli NB with Laplace smoothing over 0/1 features.
class NaiveBayesClassifier : public Classifier {
  public:
    explicit NaiveBayesClassifier(double smoothing = 1.0) : smoothing_(smoothing) {}

    std::string Name() const override { return "naive-bayes"; }
    std::string TypeId() const override { return "nb"; }
    Status Train(const FeatureMatrix& x, const std::vector<ClassLabel>& y,
                 std::size_t num_classes) override;
    ClassLabel Predict(std::span<const std::uint64_t> row) const override;
    Status SaveModel(std::ostream& out) const override;
    Status LoadModel(std::istream& in, std::size_t cols) override;

  private:
    double smoothing_;
    std::size_t num_classes_ = 0;
    std::vector<double> log_prior_;
    /// log P(x_f = 1 | c) and log P(x_f = 0 | c), row-major [class][feature].
    std::vector<double> log_on_;
    std::vector<double> log_off_;
    std::size_t cols_ = 0;
};

}  // namespace dfp
