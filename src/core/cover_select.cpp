#include "core/cover_select.hpp"

#include <algorithm>
#include <cassert>

#include "core/redundancy.hpp"

namespace dfp {

std::vector<std::size_t> GreedyMmrSelect(const std::vector<BitVector>& covers,
                                         const std::vector<double>& relevance,
                                         std::size_t max_features) {
    assert(covers.size() == relevance.size());
    const std::size_t n = covers.size();
    std::vector<std::size_t> counts(n);
    for (std::size_t i = 0; i < n; ++i) counts[i] = covers[i].Count();
    std::vector<char> done(n, 0);
    std::vector<double> max_red(n, 0.0);
    std::vector<std::size_t> chosen;
    while (chosen.size() < std::min(max_features, n)) {
        std::size_t best = n;
        double best_gain = 0.0;  // require strictly positive marginal gain
        for (std::size_t i = 0; i < n; ++i) {
            if (done[i]) continue;
            const double gain = relevance[i] - max_red[i];
            if (gain > best_gain) {
                best_gain = gain;
                best = i;
            }
        }
        if (best == n) break;
        done[best] = 1;
        chosen.push_back(best);
        for (std::size_t i = 0; i < n; ++i) {
            if (done[i]) continue;
            const double r =
                CoverJaccard(covers[i], counts[i], covers[best], counts[best]) *
                std::min(relevance[i], relevance[best]);
            max_red[i] = std::max(max_red[i], r);
        }
    }
    return chosen;
}

}  // namespace dfp
