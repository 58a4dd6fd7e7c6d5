// Ablation — why MMRFS (relevance + redundancy + coverage) instead of simpler
// selection? Compares, at equal feature budgets:
//   MMRFS        Algorithm 1
//   top-k IG     relevance only, no redundancy control
//   random-k     no signal at all
//   all          no selection (Pat_All)
// on a subset of the UCI-shaped datasets with a linear SVM. Paper's claim:
// redundancy-aware selection beats relevance-only and no-selection.
#include <cstdio>
#include <functional>

#include "common/rng.hpp"
#include "core/feature_space.hpp"
#include "core/mmrfs.hpp"
#include "core/pipeline.hpp"
#include "ml/eval/cross_validation.hpp"
#include "ml/svm/svm.hpp"
#include "bench/bench_util.hpp"

using namespace dfp;

namespace {

// CV accuracy of a fixed candidate-selection policy.
double EvaluatePolicy(const TransactionDatabase& db,
                      const std::function<std::vector<std::size_t>(
                          const TransactionDatabase&, const std::vector<Pattern>&,
                          std::size_t)>& select,
                      double min_sup_rel, std::size_t folds, std::uint64_t seed,
                      std::size_t* k_out) {
    Rng rng(seed);
    const auto fold_rows = StratifiedFolds(db.labels(), folds, rng);
    double total = 0.0;
    std::size_t evaluated = 0;
    for (std::size_t f = 0; f < folds; ++f) {
        std::vector<std::size_t> train_rows;
        for (std::size_t g = 0; g < folds; ++g) {
            if (g != f) {
                train_rows.insert(train_rows.end(), fold_rows[g].begin(),
                                  fold_rows[g].end());
            }
        }
        const TransactionDatabase train = db.Subset(train_rows);
        PipelineConfig pc;
        pc.miner.min_sup_rel = min_sup_rel;
        pc.miner.max_pattern_len = 5;
        PatternClassifierPipeline pipeline(pc);
        auto mined = pipeline.MineCandidates(train);
        if (!mined.ok()) continue;
        std::vector<Pattern> candidates = std::move(*mined);

        // Reference budget: what MMRFS would pick at δ=4.
        MmrfsConfig mmrfs;
        mmrfs.coverage_delta = 4;
        const std::size_t budget =
            RunMmrfs(train, candidates, mmrfs).selected.size();
        if (k_out != nullptr) *k_out = budget;

        const auto chosen = select(train, candidates, budget);
        std::vector<Pattern> features;
        for (std::size_t idx : chosen) features.push_back(candidates[idx]);
        const FeatureSpace space =
            FeatureSpace::Build(train.num_items(), std::move(features));
        SvmClassifier svm;
        if (!svm.Train(space.Transform(train), train.labels(), db.num_classes())
                 .ok()) {
            continue;
        }
        const TransactionDatabase test = db.Subset(fold_rows[f]);
        total += svm.Accuracy(space.Transform(test), test.labels());
        ++evaluated;
    }
    return evaluated == 0 ? 0.0 : total / static_cast<double>(evaluated);
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t folds =
        static_cast<std::size_t>(bench::FlagValue(argc, argv, "folds", 5));
    std::printf("Ablation: feature-selection policy (linear SVM, %zu-fold CV)\n\n",
                folds);
    TablePrinter table(
        {"dataset", "MMRFS", "top-k IG", "random-k", "all (Pat_All)", "k"});
    for (const std::string name :
         {"austral", "breast", "cleve", "heart", "sonar", "vehicle"}) {
        const auto spec = GetSpecByName(name);
        const auto db = PrepareTransactions(*spec);
        std::size_t k = 0;

        const double mmrfs_acc = EvaluatePolicy(
            db,
            [](const TransactionDatabase& train,
               const std::vector<Pattern>& candidates, std::size_t) {
                MmrfsConfig config;
                config.coverage_delta = 4;
                return RunMmrfs(train, candidates, config).selected;
            },
            spec->bench_min_sup, folds, 5, &k);
        const double topk_acc = EvaluatePolicy(
            db,
            [](const TransactionDatabase& train,
               const std::vector<Pattern>& candidates, std::size_t budget) {
                return TopKByRelevance(train, candidates,
                                       RelevanceMeasure::kInfoGain, budget);
            },
            spec->bench_min_sup, folds, 5, nullptr);
        const double random_acc = EvaluatePolicy(
            db,
            [](const TransactionDatabase&, const std::vector<Pattern>& candidates,
               std::size_t budget) {
                Rng rng(99);
                std::vector<std::size_t> all(candidates.size());
                for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
                rng.Shuffle(all);
                all.resize(std::min(budget, all.size()));
                return all;
            },
            spec->bench_min_sup, folds, 5, nullptr);
        const double all_acc = EvaluatePolicy(
            db,
            [](const TransactionDatabase&, const std::vector<Pattern>& candidates,
               std::size_t) {
                std::vector<std::size_t> all(candidates.size());
                for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
                return all;
            },
            spec->bench_min_sup, folds, 5, nullptr);

        table.AddRow({name, FormatPercent(mmrfs_acc), FormatPercent(topk_acc),
                      FormatPercent(random_acc), FormatPercent(all_acc),
                      StrFormat("%zu", k)});
        std::fprintf(stderr, "  done %s\n", name.c_str());
    }
    table.Print();
    return 0;
}
