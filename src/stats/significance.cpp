#include "stats/significance.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>

#include "common/math_util.hpp"
#include "common/parallel.hpp"
#include "core/measures.hpp"
#include "obs/metrics.hpp"
#include "stats/dist.hpp"

namespace dfp {

const char* SigTestName(SigTest test) {
    switch (test) {
        case SigTest::kNone: return "none";
        case SigTest::kChi2: return "chi2";
        case SigTest::kFisher: return "fisher";
        case SigTest::kOddsRatio: return "odds";
    }
    return "unknown";
}

const char* CorrectionName(Correction correction) {
    switch (correction) {
        case Correction::kNone: return "none";
        case Correction::kBonferroni: return "bonferroni";
        case Correction::kBenjaminiHochberg: return "bh";
    }
    return "unknown";
}

Result<SigTest> ParseSigTest(const std::string& name) {
    if (name == "none") return SigTest::kNone;
    if (name == "chi2") return SigTest::kChi2;
    if (name == "fisher") return SigTest::kFisher;
    if (name == "odds") return SigTest::kOddsRatio;
    return Status::InvalidArgument("unknown significance test '" + name +
                                   "' (want none|chi2|fisher|odds)");
}

Result<Correction> ParseCorrection(const std::string& name) {
    if (name == "none") return Correction::kNone;
    if (name == "bonferroni") return Correction::kBonferroni;
    if (name == "bh") return Correction::kBenjaminiHochberg;
    return Status::InvalidArgument("unknown correction '" + name +
                                   "' (want none|bonferroni|bh)");
}

namespace {

// One-sided z-test that the table's odds ratio exceeds `min_odds_ratio`.
// Haldane–Anscombe +0.5 smoothing keeps the estimator and its standard error
// finite on zero cells; p = NormalSurvival(z) of the Wald statistic.
double OddsRatioPValue(const stats::Table2x2& t, double min_odds_ratio) {
    const double a = static_cast<double>(t.a) + 0.5;
    const double b = static_cast<double>(t.b) + 0.5;
    const double c = static_cast<double>(t.c) + 0.5;
    const double d = static_cast<double>(t.d) + 0.5;
    const double log_or = std::log(a) - std::log(b) - std::log(c) + std::log(d);
    const double se = std::sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d);
    const double z = (log_or - std::log(min_odds_ratio)) / se;
    return stats::NormalSurvival(z);
}

std::vector<double> SortedCopy(const std::vector<double>& values) {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
}

// Median of ascending `sorted`: the middle order statistic, or the mean of
// the two middle ones for an even count (0 when empty).
double SortedMedian(const std::vector<double>& sorted) {
    if (sorted.empty()) return 0.0;
    const std::size_t mid = sorted.size() / 2;
    if (sorted.size() % 2 != 0) return sorted[mid];
    return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

// The threshold CorrectionThreshold documents, over p-values already sorted
// ascending.
double SortedCorrectionThreshold(const std::vector<double>& sorted,
                                 Correction correction, double alpha) {
    const double m = static_cast<double>(sorted.size());
    switch (correction) {
        case Correction::kNone:
            return alpha;
        case Correction::kBonferroni:
            return sorted.empty() ? alpha : alpha / m;
        case Correction::kBenjaminiHochberg: {
            if (sorted.empty()) return alpha;
            // Largest k with p_(k) <= k·alpha/m; every p at or below that
            // order statistic is declared a discovery.
            for (std::size_t k = sorted.size(); k-- > 0;) {
                if (sorted[k] <= alpha * static_cast<double>(k + 1) / m) {
                    return sorted[k];
                }
            }
            return -std::numeric_limits<double>::infinity();
        }
    }
    return alpha;
}

// `sorted` is result.p_values in ascending order.
void FlushSignificanceMetrics(const SignificanceResult& result,
                              const std::vector<double>& sorted) {
    auto& registry = obs::Registry::Get();
    static auto& tested_c = registry.GetCounter("dfp.stats.candidates_tested");
    static auto& rejected_c = registry.GetCounter("dfp.stats.rejected");
    static auto& p_h = registry.GetHistogram(
        "dfp.stats.p_value", {1e-10, 1e-6, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.5});
    static auto& min_p_g = registry.GetGauge("dfp.stats.min_p");
    static auto& median_p_g = registry.GetGauge("dfp.stats.median_p");
    static auto& threshold_g =
        registry.GetGauge("dfp.stats.correction_threshold");
    static auto& kept_g = registry.GetGauge("dfp.stats.kept");
    tested_c.Inc(result.tested);
    rejected_c.Inc(result.rejected);
    double min_p = 1.0;
    for (double p : result.p_values) min_p = std::min(min_p, p);
    p_h.ObserveBatch(result.p_values);
    min_p_g.Set(min_p);
    median_p_g.Set(SortedMedian(sorted));
    // The raw threshold can be ±inf (BH with no discovery / fail-open);
    // clamp the gauge so report JSON stays finite. 0 = "rejects everything",
    // 1 = "keeps everything".
    threshold_g.Set(Clamp(result.threshold, 0.0, 1.0));
    kept_g.Set(static_cast<double>(result.tested - result.rejected));
}

}  // namespace

double PatternPValue(SigTest test, const TransactionDatabase& db,
                     const Pattern& pattern, double min_odds_ratio) {
    if (test == SigTest::kNone) return 0.0;  // trivially kept
    const FeatureStats fs = StatsOfPattern(db, pattern);
    // Degenerate margins carry no information: an always/never-present
    // feature or a single-class database cannot discriminate.
    if (fs.n == 0 || fs.support == 0 || fs.support == fs.n) return 1.0;
    const stats::Table2x2 t = OneVsRestTable(fs, pattern.MajorityClass());
    if (t.col1() == 0 || t.col1() == t.n()) return 1.0;
    switch (test) {
        case SigTest::kChi2:
            return stats::ChiSquareSurvival(stats::ChiSquareStatistic(t), 1.0);
        case SigTest::kFisher:
            return stats::FisherExactGreater(t);
        case SigTest::kOddsRatio:
            return OddsRatioPValue(t, min_odds_ratio);
        case SigTest::kNone:
            break;
    }
    return 0.0;
}

double CorrectionThreshold(const std::vector<double>& p_values,
                           Correction correction, double alpha) {
    return SortedCorrectionThreshold(SortedCopy(p_values), correction, alpha);
}

SignificanceResult RunSignificanceFilter(const TransactionDatabase& db,
                                         const std::vector<Pattern>& candidates,
                                         const SignificanceConfig& config) {
    SignificanceResult result;
    result.keep.assign(candidates.size(), 1);
    if (config.test == SigTest::kNone || candidates.empty()) return result;
    result.p_values.assign(candidates.size(), 1.0);
    result.tested = candidates.size();

    // Parallel p-value scan: each chunk writes only its own disjoint
    // p_values slots (PatternPValue is pure), so the doubles are
    // bit-identical at any thread count. Each chunk polls its own guard on
    // the shared budget/deadline.
    const std::size_t threads =
        std::min(ResolveNumThreads(config.num_threads), candidates.size());
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    std::atomic<int> scan_breach{static_cast<int>(BudgetBreach::kNone)};
    DeadlineTimer timer(config.budget.time_budget_ms);
    ParallelFor(pool.get(), candidates.size(),
                [&](std::size_t begin, std::size_t end) {
                    BudgetGuard guard(TaskBudget(config.budget, timer),
                                      std::numeric_limits<std::size_t>::max(),
                                      /*clock_stride=*/1);
                    for (std::size_t i = begin; i < end; ++i) {
                        assert(candidates[i].cover.size() ==
                                   db.num_transactions() &&
                               "metadata not attached");
                        result.p_values[i] =
                            PatternPValue(config.test, db, candidates[i],
                                          config.min_odds_ratio);
                        if (guard.Check(0) != BudgetBreach::kNone) {
                            scan_breach.store(static_cast<int>(guard.breach()),
                                              std::memory_order_relaxed);
                            return;
                        }
                    }
                });

    const auto breach = static_cast<BudgetBreach>(
        scan_breach.load(std::memory_order_relaxed));
    if (breach != BudgetBreach::kNone) {
        // kCancelled: the caller aborts the train. Anything else fails open —
        // an interrupted scan must not silently drop patterns from the model.
        result.breach = breach;
        result.threshold = std::numeric_limits<double>::infinity();
        RecordBreach("stats.significance", breach,
                     static_cast<double>(candidates.size()));
        if (breach != BudgetBreach::kCancelled) {
            FlushSignificanceMetrics(result, SortedCopy(result.p_values));
        }
        return result;
    }

    // The correction runs serially over the finished p-vector, so the keep
    // mask is a deterministic function of the (deterministic) p-values. One
    // sorted copy serves the threshold and the median gauge.
    const std::vector<double> sorted = SortedCopy(result.p_values);
    result.threshold =
        SortedCorrectionThreshold(sorted, config.correction, config.alpha);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (!(result.p_values[i] <= result.threshold)) {
            result.keep[i] = 0;
            ++result.rejected;
        }
    }
    FlushSignificanceMetrics(result, sorted);
    return result;
}

}  // namespace dfp
