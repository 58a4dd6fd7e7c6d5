// Statistical-significance filter over mined pattern candidates
// (DESIGN.md §18).
//
// MMRFS keeps patterns by marginal gain, but a gain barely above zero can be
// pure sampling noise ("Statistically Significant Discriminative Patterns
// Searching", PAPERS.md). This stage tests each candidate's 2×2 one-vs-rest
// contingency table — pattern presence X against its own majority class — for
// association with the label, corrects the whole candidate set for multiple
// testing, and hands MMRFS a keep-mask. Patterns that fail are never scored
// or selected; with SigTest::kNone the stage is skipped entirely and the
// pipeline is bit-identical to the unfiltered path (certified by
// tests/stats/significance_test.cpp).
//
// All three tests reduce to a p-value, so one correction pass covers them:
//  * kChi2      Pearson chi-square statistic (1 dof) → ChiSquareSurvival.
//  * kFisher    Fisher exact one-sided (greater): exact hypergeometric tail,
//               preferable for small cells where chi-square's asymptotics lie.
//  * kOddsRatio z-test that the odds ratio exceeds `min_odds_ratio`
//               (Haldane–Anscombe +0.5 smoothing; p = NormalSurvival(z)).
//               min_odds_ratio = 1 tests plain positive association; larger
//               values demand a minimum effect *size*, not just existence.
//
// The p-value scan fans out over the slotted ThreadPool (disjoint
// per-candidate slots → bit-identical at any thread count; 20-seed certificate in tests/stats/stats_determinism_test.cpp)
// and is budget/cancel aware: a fired CancelToken propagates kCancelled; any
// other breach fails *open* (keeps every candidate, records the guard event)
// because dropping patterns on a deadline would silently change the model.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/status.hpp"
#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"

namespace dfp {

/// Which per-pattern test to run. kNone disables the stage.
enum class SigTest { kNone, kChi2, kFisher, kOddsRatio };

/// Multiple-testing correction applied across the candidate set.
enum class Correction { kNone, kBonferroni, kBenjaminiHochberg };

const char* SigTestName(SigTest test);
const char* CorrectionName(Correction correction);

/// Parses "none" | "chi2" | "fisher" | "odds" (CLI flag values).
Result<SigTest> ParseSigTest(const std::string& name);
/// Parses "none" | "bonferroni" | "bh".
Result<Correction> ParseCorrection(const std::string& name);

struct SignificanceConfig {
    SigTest test = SigTest::kNone;
    /// Family-wise (Bonferroni) or false-discovery (BH) level.
    double alpha = 0.05;
    Correction correction = Correction::kBenjaminiHochberg;
    /// Null odds ratio for kOddsRatio (ignored by the other tests). 1.0 =
    /// "any positive association"; e.g. 1.5 demands a 50% odds lift.
    double min_odds_ratio = 1.0;
    /// Worker threads for the p-value scan; 1 = serial, 0 = hardware.
    std::size_t num_threads = 1;
    /// Execution limits for the scan (see fail-open semantics above).
    ExecutionBudget budget;
};

struct SignificanceResult {
    /// Per-candidate verdict, indexed like the input (1 = keep).
    std::vector<char> keep;
    /// Raw (uncorrected) p-value per candidate.
    std::vector<double> p_values;
    std::size_t tested = 0;    ///< candidates scanned
    std::size_t rejected = 0;  ///< candidates filtered out (keep == 0)
    /// Effective raw-p cutoff after correction (keep ⇔ p <= threshold).
    double threshold = 0.0;
    /// kNone on a complete scan. kCancelled means the caller must abort;
    /// any other breach means the filter failed open (keep all).
    BudgetBreach breach = BudgetBreach::kNone;
};

/// Raw p-value of one pattern under `test` (exposed for tests and benches).
/// The pattern must have metadata attached against `db`. Degenerate tables
/// (empty/full support, single-class database) return p = 1.
double PatternPValue(SigTest test, const TransactionDatabase& db,
                     const Pattern& pattern, double min_odds_ratio = 1.0);

/// The raw-p keep threshold implied by `correction` over `p_values` at level
/// `alpha`: alpha (none), alpha/m (Bonferroni), or the largest p_(k) with
/// p_(k) <= k·alpha/m (Benjamini–Hochberg; -inf when no k qualifies).
/// Exposed for tests; RunSignificanceFilter applies it internally.
double CorrectionThreshold(const std::vector<double>& p_values,
                           Correction correction, double alpha);

/// Runs the test on every candidate (parallel over config.num_threads),
/// applies the correction, publishes `dfp.stats.*` metrics. Candidates must
/// have metadata attached. With test == kNone returns an all-keep result
/// without touching the registry.
SignificanceResult RunSignificanceFilter(const TransactionDatabase& db,
                                         const std::vector<Pattern>& candidates,
                                         const SignificanceConfig& config);

}  // namespace dfp
