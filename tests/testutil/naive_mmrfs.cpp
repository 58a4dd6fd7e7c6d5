#include "testutil/naive_mmrfs.hpp"

#include <algorithm>
#include <limits>

namespace dfp::testutil {

double CoverJaccard(const BitVector& a, const BitVector& b) {
    const std::size_t unions = (a | b).Count();
    if (unions == 0) return 0.0;
    return static_cast<double>(a.AndCount(b)) / static_cast<double>(unions);
}

double Redundancy(const Pattern& a, const Pattern& b, double relevance_a,
                  double relevance_b) {
    return CoverJaccard(a.cover, b.cover) * std::min(relevance_a, relevance_b);
}

MmrfsResult NaiveMmrfs(const TransactionDatabase& db,
                       const std::vector<Pattern>& candidates,
                       const MmrfsConfig& config) {
    const std::size_t n = db.num_transactions();
    MmrfsResult result;
    result.coverage.assign(n, 0);
    result.relevance.resize(candidates.size());
    if (candidates.empty() || n == 0) return result;

    std::vector<char> done(candidates.size(), 0);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (config.candidate_mask != nullptr && (*config.candidate_mask)[i] == 0) {
            done[i] = 1;  // filtered: never scored, never selected
            continue;
        }
        result.relevance[i] =
            PatternRelevance(config.relevance, db, candidates[i]);
    }

    std::size_t under_covered = config.coverage_delta > 0 ? n : 0;
    while (under_covered > 0 && result.selected.size() < config.max_features) {
        std::size_t best = candidates.size();
        double best_gain = -std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (done[i]) continue;
            double max_red = 0.0;
            for (std::size_t s : result.selected) {
                max_red = std::max(
                    max_red, Redundancy(candidates[i], candidates[s],
                                        result.relevance[i],
                                        result.relevance[s]));
            }
            const double gain = result.relevance[i] - max_red;
            if (gain > best_gain) {
                best_gain = gain;
                best = i;
            }
        }
        if (best == candidates.size()) break;  // pool exhausted
        done[best] = 1;

        const ClassLabel majority = candidates[best].MajorityClass();
        bool covers_needy = false;
        candidates[best].cover.ForEach([&](std::uint32_t t) {
            covers_needy = covers_needy || (db.label(t) == majority &&
                                            result.coverage[t] <
                                                config.coverage_delta);
        });
        if (!covers_needy) continue;  // discard; Fs unchanged

        result.selected.push_back(best);
        result.gains.push_back(best_gain);
        candidates[best].cover.ForEach([&](std::uint32_t t) {
            if (db.label(t) != majority) return;
            if (result.coverage[t] == config.coverage_delta - 1) --under_covered;
            if (result.coverage[t] < config.coverage_delta) ++result.coverage[t];
        });
    }
    return result;
}

}  // namespace dfp::testutil
