// Reference measures: the owned-vector formulas the measure and significance
// code computed before FeatureStats viewed its counts in place.
//
// Each function copies its class counts into fresh vectors and evaluates the
// original expressions (the complement counts of IG and Gini materialized,
// EntropyCounts' loops written out, the odds-ratio z-test restated). The
// certificate tests require the view-based src/ functions to return the same
// doubles bitwise, so any change to a summation order shows.
#pragma once

#include <cstddef>
#include <vector>

#include "core/measures.hpp"
#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"
#include "stats/dist.hpp"
#include "stats/significance.hpp"

namespace dfp::testutil {

/// Sufficient statistics with owned per-class counts.
struct OwnedFeatureStats {
    std::size_t n = 0;
    std::size_t support = 0;
    std::vector<std::size_t> class_totals;
    std::vector<std::size_t> class_support;

    /// The viewing FeatureStats src/ takes; valid while this object lives.
    FeatureStats View() const;
};

/// The counts of a pattern with attached metadata, copied out of db and the
/// pattern.
OwnedFeatureStats OwnedStatsOfPattern(const TransactionDatabase& db,
                                      const Pattern& pattern);

stats::Table2x2 ReferenceOneVsRestTable(const OwnedFeatureStats& fs,
                                        ClassLabel c);
double ReferenceInformationGain(const OwnedFeatureStats& stats);
double ReferenceFisherScore(const OwnedFeatureStats& stats);
double ReferenceGiniGain(const OwnedFeatureStats& stats);

/// PatternPValue over the owned copies of the pattern's counts.
double ReferencePatternPValue(SigTest test, const TransactionDatabase& db,
                              const Pattern& pattern, double min_odds_ratio);

}  // namespace dfp::testutil
