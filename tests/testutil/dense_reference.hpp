// Dense reference predictors: the 0/1-doubles prediction every learner ran
// before Predict took packed rows.
//
// Each predictor is rebuilt from a learner's SaveModel text and evaluates the
// row as a vector of doubles with the dense loops the library used to run
// (NB's > 0.5 test, C4.5's x[f] <= threshold, w·x over every column, the
// kernel summed over doubles). It shares no code with the packed Predict it
// certifies, so a test can require the two to agree on every row.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/svm/kernel.hpp"

namespace dfp::testutil {

/// K(a, b) summed over two vectors of doubles: the reference that
/// BinaryKernelEval must equal bit for bit on 0/1 vectors.
double KernelEval(const KernelParams& params, std::span<const double> a,
                  std::span<const double> b);

/// A packed row of `cols` features decoded to 0/1 doubles.
std::vector<double> DenseRow(std::span<const std::uint64_t> row, std::size_t cols);

/// Row r of `x` as 0/1 doubles.
std::vector<double> DenseRow(const FeatureMatrix& x, std::size_t r);

/// Predicts a dense 0/1 row.
using DensePredictor = std::function<ClassLabel(std::span<const double>)>;

/// The dense predictor of `learner`'s saved model ("nb", "c4.5" or "svm").
DensePredictor DenseReference(const Classifier& learner);

}  // namespace dfp::testutil
