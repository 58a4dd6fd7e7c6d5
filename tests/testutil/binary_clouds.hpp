// Seeded 0/1 class clouds for the learner tests.
//
// The learners train on B^{d'}, so their tests draw binary rows: feature f
// belongs to class f % classes, and a row of class c sets each of its own
// features with probability p_own and each foreign feature with probability
// p_foreign. Every row sets at least one own feature, so p_foreign = 0 gives
// linearly separable classes and p_foreign > 0 overlapping ones.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "ml/feature_matrix.hpp"

namespace dfp::testutil {

/// `classes` × `n_per_class` rows (class-major) over `dims` ≥ `classes`
/// features; labels go to *y.
FeatureMatrix BinaryClouds(std::size_t classes, std::size_t n_per_class,
                           std::size_t dims, double p_own, double p_foreign,
                           std::uint64_t seed, std::vector<ClassLabel>* y);

/// Labels 1 → +1 and every other label → −1 (the binary SMO convention).
std::vector<int> PlusMinus(const std::vector<ClassLabel>& y);

}  // namespace dfp::testutil
