#include "core/measures.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "common/math_util.hpp"

namespace dfp {

namespace {

// Entropy of counts read in place, in EntropyCounts' order.
double EntropyOfSpan(std::span<const std::size_t> counts) {
    return EntropyOfCounts(counts.size(),
                           [counts](std::size_t c) { return counts[c]; });
}

}  // namespace

FeatureStats StatsOfCover(const TransactionDatabase& db, const BitVector& cover,
                          std::vector<std::size_t>* class_support) {
    *class_support = db.ClassCountsOf(cover);
    FeatureStats s;
    s.n = db.num_transactions();
    s.support = cover.Count();
    s.class_totals = db.ClassCounts();
    s.class_support = *class_support;
    return s;
}

FeatureStats StatsOfPattern(const TransactionDatabase& db, const Pattern& pattern) {
    assert(pattern.cover.size() == db.num_transactions() &&
           "pattern metadata not attached; call AttachMetadata first");
    FeatureStats s;
    s.n = db.num_transactions();
    s.support = pattern.support;
    s.class_totals = db.ClassCounts();
    s.class_support = pattern.class_counts;
    return s;
}

stats::Table2x2 OneVsRestTable(const FeatureStats& fs, ClassLabel c) {
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

double ClassEntropy(const FeatureStats& stats) {
    return EntropyOfSpan(stats.class_totals);
}

double InformationGain(const FeatureStats& stats) {
    if (stats.n == 0) return 0.0;
    const double n = static_cast<double>(stats.n);
    const double n1 = static_cast<double>(stats.support);
    const double n0 = n - n1;

    // H(C | X = 1) over the feature's class counts and H(C | X = 0) over
    // their complements n_c − |X = 1 ∧ C = c|, taken as they are read.
    const double h_on = EntropyOfSpan(stats.class_support);
    const double h_off = EntropyOfCounts(
        stats.class_totals.size(), [&stats](std::size_t c) {
            return stats.class_totals[c] - stats.class_support[c];
        });
    const double h_cond = (n1 / n) * h_on + (n0 / n) * h_off;
    const double ig = ClassEntropy(stats) - h_cond;
    return ig < 0.0 ? 0.0 : ig;  // clamp away negative rounding noise
}

double FisherScore(const FeatureStats& stats) {
    if (stats.n == 0) return 0.0;
    const double mu = stats.theta();
    double numerator = 0.0;
    double denominator = 0.0;
    for (std::size_t c = 0; c < stats.class_totals.size(); ++c) {
        const double nc = static_cast<double>(stats.class_totals[c]);
        if (nc == 0.0) continue;
        const double mu_c = static_cast<double>(stats.class_support[c]) / nc;
        numerator += nc * (mu_c - mu) * (mu_c - mu);
        // Population variance of a Bernoulli feature within class c.
        denominator += nc * mu_c * (1.0 - mu_c);
    }
    if (denominator <= 0.0) {
        return numerator <= 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    }
    return numerator / denominator;
}

double GiniGain(const FeatureStats& stats) {
    if (stats.n == 0) return 0.0;
    // Gini impurity of the m weights weight_at(0), …, weight_at(m − 1).
    const std::size_t m = stats.class_totals.size();
    auto gini = [m](auto weight_at) {
        double total = 0.0;
        for (std::size_t c = 0; c < m; ++c) total += weight_at(c);
        if (total <= 0.0) return 0.0;
        double g = 1.0;
        for (std::size_t c = 0; c < m; ++c) {
            const double w = weight_at(c);
            g -= (w / total) * (w / total);
        }
        return g;
    };
    auto all = [&stats](std::size_t c) {
        return static_cast<double>(stats.class_totals[c]);
    };
    auto on = [&stats](std::size_t c) {
        return static_cast<double>(stats.class_support[c]);
    };
    auto off = [&](std::size_t c) { return all(c) - on(c); };
    const double n = static_cast<double>(stats.n);
    const double n1 = static_cast<double>(stats.support);
    const double split = (n1 / n) * gini(on) + ((n - n1) / n) * gini(off);
    const double gain = gini(all) - split;
    return gain < 0.0 ? 0.0 : gain;
}

double Relevance(RelevanceMeasure measure, const FeatureStats& stats) {
    switch (measure) {
        case RelevanceMeasure::kInfoGain: return InformationGain(stats);
        case RelevanceMeasure::kFisher: return FisherScore(stats);
        case RelevanceMeasure::kGini: return GiniGain(stats);
    }
    return 0.0;
}

double PatternRelevance(RelevanceMeasure measure, const TransactionDatabase& db,
                        const Pattern& pattern) {
    return Relevance(measure, StatsOfPattern(db, pattern));
}

}  // namespace dfp
