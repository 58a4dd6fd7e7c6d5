#include "ml/eval/cross_validation.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace dfp {

std::vector<std::vector<std::size_t>> StratifiedFolds(
    const std::vector<ClassLabel>& y, std::size_t k, Rng& rng) {
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

CvResult CrossValidate(const FeatureMatrix& x, const std::vector<ClassLabel>& y,
                       std::size_t num_classes, const ClassifierFactory& factory,
                       std::size_t folds, std::uint64_t seed,
                       std::size_t num_threads) {
    Rng rng(seed);
    const auto fold_rows = StratifiedFolds(y, folds, rng);
    CvResult result;
    result.fold_accuracies.assign(folds, 0.0);

    // Each fold trains and scores independently against the precomputed
    // split, writing only its own accuracy slot — so the fold loop runs
    // unchanged whether chunked across workers or inline (the serial path).
    auto run_fold = [&](std::size_t f) {
        std::vector<std::size_t> train_rows;
        for (std::size_t g = 0; g < folds; ++g) {
            if (g == f) continue;
            train_rows.insert(train_rows.end(), fold_rows[g].begin(),
                              fold_rows[g].end());
        }
        const auto& test_rows = fold_rows[f];
        if (test_rows.empty() || train_rows.empty()) return;
        auto labels_of = [&y](const std::vector<std::size_t>& rows) {
            std::vector<ClassLabel> labels;
            labels.reserve(rows.size());
            for (std::size_t r : rows) labels.push_back(y[r]);
            return labels;
        };

        auto model = factory();
        const Status st =
            model->Train(x.SelectRows(train_rows), labels_of(train_rows), num_classes);
        if (!st.ok()) return;
        result.fold_accuracies[f] =
            model->Accuracy(x.SelectRows(test_rows), labels_of(test_rows));
    };

    const std::size_t threads = std::min(ResolveNumThreads(num_threads), folds);
    if (threads <= 1) {
        for (std::size_t f = 0; f < folds; ++f) run_fold(f);
    } else {
        ThreadPool pool(threads);
        ParallelFor(&pool, folds, [&](std::size_t begin, std::size_t end) {
            for (std::size_t f = begin; f < end; ++f) run_fold(f);
        });
    }

    double total = 0.0;
    for (double acc : result.fold_accuracies) total += acc;
    result.mean_accuracy =
        result.fold_accuracies.empty()
            ? 0.0
            : total / static_cast<double>(result.fold_accuracies.size());
    return result;
}

}  // namespace dfp
