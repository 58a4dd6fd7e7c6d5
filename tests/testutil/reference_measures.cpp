#include "testutil/reference_measures.hpp"

#include <cmath>
#include <limits>

#include "common/math_util.hpp"

namespace dfp::testutil {

namespace {

double EntropyOfOwnedCounts(const std::vector<std::size_t>& counts) {
    double total = 0.0;
    for (auto c : counts) total += static_cast<double>(c);
    if (total <= 0.0) return 0.0;
    double h = 0.0;
    for (auto c : counts) h -= XLog2X(static_cast<double>(c) / total);
    return h;
}

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

}  // namespace

FeatureStats OwnedFeatureStats::View() const {
    FeatureStats s;
    s.n = n;
    s.support = support;
    s.class_totals = class_totals;
    s.class_support = class_support;
    return s;
}

OwnedFeatureStats OwnedStatsOfPattern(const TransactionDatabase& db,
                                      const Pattern& pattern) {
    OwnedFeatureStats s;
    s.n = db.num_transactions();
    s.support = pattern.support;
    s.class_totals = db.ClassCounts();
    s.class_support = pattern.class_counts;
    return s;
}

stats::Table2x2 ReferenceOneVsRestTable(const OwnedFeatureStats& fs,
                                        ClassLabel c) {
    const std::size_t in_class =
        c < fs.class_totals.size() ? fs.class_totals[c] : 0;
    const std::size_t hit =
        c < fs.class_support.size() ? fs.class_support[c] : 0;
    stats::Table2x2 t;
    t.a = hit;
    t.b = fs.support - hit;
    t.c = in_class - hit;
    t.d = (fs.n - fs.support) - t.c;
    return t;
}

double ReferenceInformationGain(const OwnedFeatureStats& stats) {
    if (stats.n == 0) return 0.0;
    const double n = static_cast<double>(stats.n);
    const double n1 = static_cast<double>(stats.support);
    const double n0 = n - n1;

    std::vector<std::size_t> c0(stats.class_totals.size());
    for (std::size_t c = 0; c < c0.size(); ++c) {
        c0[c] = stats.class_totals[c] - stats.class_support[c];
    }
    const double h_cond = (n1 / n) * EntropyOfOwnedCounts(stats.class_support) +
                          (n0 / n) * EntropyOfOwnedCounts(c0);
    const double ig = EntropyOfOwnedCounts(stats.class_totals) - h_cond;
    return ig < 0.0 ? 0.0 : ig;
}

double ReferenceFisherScore(const OwnedFeatureStats& stats) {
    if (stats.n == 0) return 0.0;
    const double mu = static_cast<double>(stats.support) /
                      static_cast<double>(stats.n);
    double numerator = 0.0;
    double denominator = 0.0;
    for (std::size_t c = 0; c < stats.class_totals.size(); ++c) {
        const double nc = static_cast<double>(stats.class_totals[c]);
        if (nc == 0.0) continue;
        const double mu_c = static_cast<double>(stats.class_support[c]) / nc;
        numerator += nc * (mu_c - mu) * (mu_c - mu);
        denominator += nc * mu_c * (1.0 - mu_c);
    }
    if (denominator <= 0.0) {
        return numerator <= 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    }
    return numerator / denominator;
}

double ReferenceGiniGain(const OwnedFeatureStats& stats) {
    if (stats.n == 0) return 0.0;
    auto gini = [](const std::vector<double>& counts) {
        double total = 0.0;
        for (double c : counts) total += c;
        if (total <= 0.0) return 0.0;
        double g = 1.0;
        for (double c : counts) g -= (c / total) * (c / total);
        return g;
    };
    const std::size_t m = stats.class_totals.size();
    std::vector<double> all(m);
    std::vector<double> on(m);
    std::vector<double> off(m);
    for (std::size_t c = 0; c < m; ++c) {
        all[c] = static_cast<double>(stats.class_totals[c]);
        on[c] = static_cast<double>(stats.class_support[c]);
        off[c] = all[c] - on[c];
    }
    const double n = static_cast<double>(stats.n);
    const double n1 = static_cast<double>(stats.support);
    const double split = (n1 / n) * gini(on) + ((n - n1) / n) * gini(off);
    const double gain = gini(all) - split;
    return gain < 0.0 ? 0.0 : gain;
}

double ReferencePatternPValue(SigTest test, const TransactionDatabase& db,
                              const Pattern& pattern, double min_odds_ratio) {
    if (test == SigTest::kNone) return 0.0;
    const OwnedFeatureStats fs = OwnedStatsOfPattern(db, pattern);
    if (fs.n == 0 || fs.support == 0 || fs.support == fs.n) return 1.0;
    const stats::Table2x2 t =
        ReferenceOneVsRestTable(fs, pattern.MajorityClass());
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

}  // namespace dfp::testutil
