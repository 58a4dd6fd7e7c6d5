// Stratified k-fold cross validation (the paper's evaluation protocol).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace dfp {

/// Splits row indices into k folds preserving the class distribution. Every
/// row lands in exactly one fold; fold sizes differ by at most one per class.
/// k = 0 yields no folds.
std::vector<std::vector<std::size_t>> StratifiedFolds(
    const std::vector<ClassLabel>& y, std::size_t k, Rng& rng);

}  // namespace dfp
