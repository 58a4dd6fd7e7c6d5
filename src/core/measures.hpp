// Discriminative measures of binary (pattern) features w.r.t. the class label.
//
// A pattern α induces the binary feature X = 1{α ⊆ transaction}. Its
// discriminative power is measured against the class label C by information
// gain IG(C|X) = H(C) − H(C|X) (in bits) or by the Fisher score (Eq. 4 of the
// paper, with the population-variance convention used in its derivation).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"
#include "stats/dist.hpp"

namespace dfp {

/// Sufficient statistics of one binary feature vs. the class label. The
/// per-class counts are views: whoever builds the stats keeps the counts they
/// point at alive (the database's cached totals and a pattern's attached
/// counts do), so scoring a candidate copies nothing.
struct FeatureStats {
    std::size_t n = 0;        ///< total transactions
    std::size_t support = 0;  ///< |X = 1|
    std::span<const std::size_t> class_totals;   ///< n_c per class
    std::span<const std::size_t> class_support;  ///< |X = 1 ∧ C = c| per class

    double theta() const {
        return n == 0 ? 0.0 : static_cast<double>(support) / static_cast<double>(n);
    }
};

/// Builds FeatureStats for the feature "row ∈ cover" against db's labels.
/// The cover's per-class counts go to `*class_support`, which the result
/// views; it must outlive the stats.
FeatureStats StatsOfCover(const TransactionDatabase& db, const BitVector& cover,
                          std::vector<std::size_t>* class_support);

/// Builds FeatureStats for a mined pattern (requires attached metadata). The
/// result views db's class totals and the pattern's class counts.
FeatureStats StatsOfPattern(const TransactionDatabase& db, const Pattern& pattern);

/// One-vs-rest 2×2 contingency table of the binary feature against class
/// `c`: rows X = 1 / X = 0, columns C = c / C ≠ c. Classes outside the
/// database's range count as empty. This is the significance layer's input
/// (stats/significance.hpp).
stats::Table2x2 OneVsRestTable(const FeatureStats& fs, ClassLabel c);

/// H(C) in bits.
double ClassEntropy(const FeatureStats& stats);

/// IG(C|X) = H(C) − H(C|X) in bits. Non-negative (up to rounding).
double InformationGain(const FeatureStats& stats);

/// Fisher score (Eq. 4) of the binary feature. Returns +inf when the
/// within-class variance is zero but the between-class spread is not, and 0
/// when both vanish.
double FisherScore(const FeatureStats& stats);

/// Gini impurity reduction of the split X=0 / X=1 (extra measure, used by the
/// ablation benches).
double GiniGain(const FeatureStats& stats);

/// Relevance measure selector for MMRFS (Definition 3).
enum class RelevanceMeasure { kInfoGain, kFisher, kGini };

/// Dispatches to the chosen measure.
double Relevance(RelevanceMeasure measure, const FeatureStats& stats);

/// Convenience: relevance of a pattern w.r.t. db's labels.
double PatternRelevance(RelevanceMeasure measure, const TransactionDatabase& db,
                        const Pattern& pattern);

}  // namespace dfp
