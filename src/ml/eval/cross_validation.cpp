#include "ml/eval/cross_validation.hpp"

#include <algorithm>

namespace dfp {

std::vector<std::vector<std::size_t>> StratifiedFolds(
    const std::vector<ClassLabel>& y, std::size_t k, Rng& rng) {
    if (k == 0) return {};
    std::vector<std::vector<std::size_t>> folds(k);
    // Group rows by class, shuffle each group, deal them round-robin.
    ClassLabel max_label = 0;
    for (ClassLabel label : y) max_label = std::max(max_label, label);
    std::vector<std::vector<std::size_t>> by_class(max_label + 1);
    for (std::size_t r = 0; r < y.size(); ++r) by_class[y[r]].push_back(r);

    std::size_t next_fold = 0;
    for (auto& group : by_class) {
        rng.Shuffle(group);
        for (std::size_t r : group) {
            folds[next_fold].push_back(r);
            next_fold = (next_fold + 1) % k;
        }
    }
    for (auto& fold : folds) std::sort(fold.begin(), fold.end());
    return folds;
}

}  // namespace dfp
