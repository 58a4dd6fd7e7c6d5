// Shared harness for the scalability experiments (Tables 3–5).
//
// For each min_sup value: mine closed patterns over the whole database
// (global mining — the paper's thresholds exceed any class-partition size),
// run MMRFS, report pattern count and mining+selection time, then train the
// pattern classifier on a stratified 80/20 split and report SVM and C4.5
// accuracy. A min_sup = 1 row attempts full enumeration under a pattern
// budget, reproducing the paper's "cannot complete" entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/transaction_db.hpp"

namespace dfp {

struct ScalabilityConfig {
    /// Absolute min_sup values to sweep (the paper's table rows).
    std::vector<std::size_t> min_sups;
    /// Pattern budget used both for the sweep and the min_sup=1 probe.
    std::size_t pattern_budget = 2'000'000;
    /// MMRFS database-coverage δ and feature cap (keeps learners tractable).
    std::size_t coverage_delta = 3;
    std::size_t max_features = 400;
    std::size_t max_pattern_len = 6;
    std::uint64_t seed = 77;
    /// Try full enumeration at min_sup = 1 first (paper row).
    bool probe_min_sup_one = true;
};

struct ScalabilityRow {
    std::size_t min_sup = 0;
    bool feasible = false;
    /// Set when infeasible ("budget exceeded ...") or when a learner's Train
    /// failed (its Status; that learner's accuracy reads 0).
    std::string note;
    std::size_t patterns = 0;  ///< closed pattern count
    double time_seconds = 0.0;  ///< mining + feature selection
    double svm_accuracy = 0.0;
    double c45_accuracy = 0.0;
    /// smo_nonconverged guard events the SVM column's one-vs-one solves raised.
    std::size_t smo_nonconverged = 0;
    std::size_t selected = 0;  ///< |Fs| after MMRFS
};

/// Runs the sweep. `db` is the full prepared database.
std::vector<ScalabilityRow> RunScalability(const TransactionDatabase& db,
                                           const ScalabilityConfig& config);

/// Prints the paper-style table.
void PrintScalability(const std::string& dataset,
                      const TransactionDatabase& db,
                      const std::vector<ScalabilityRow>& rows);

}  // namespace dfp
