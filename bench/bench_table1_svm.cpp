// Table 1 — SVM accuracy on frequent combined features vs single features.
//
// 19 UCI-shaped datasets × five model variants:
//   Item_All  all single features, linear SVM
//   Item_FS   IG-selected single features, linear SVM
//   Item_RBF  all single features, RBF SVM
//   Pat_All   single features + all mined closed patterns, linear SVM
//   Pat_FS    single features + MMRFS-selected patterns, linear SVM
// Stratified k-fold CV with mining/selection redone per training fold.
//
// Expected shape (paper): Pat_FS wins most rows; Pat_FS > Pat_All (selection
// beats no selection); Pat_FS > Item_RBF. Absolute numbers differ (synthetic
// data, our own SMO) — see EXPERIMENTS.md.
//
// Each cell's mean, fold standard error and guard event counts (SMO
// non-convergence, budget breaches) also go to BENCH_table1.json.
//
// Flags: --folds=N (default 10)
#include <cstdio>

#include "bench/bench_util.hpp"

using namespace dfp;

int main(int argc, char** argv) {
    ExperimentConfig config;
    config.folds = static_cast<std::size_t>(bench::FlagValue(argc, argv, "folds", 10));

    std::printf("Table 1: accuracy by SVM (%zu-fold CV)\n\n", config.folds);
    TablePrinter table({"dataset", "Item_All", "Item_FS", "Item_RBF", "Pat_All",
                        "Pat_FS", "best"});
    std::size_t pat_fs_wins = 0;
    std::size_t pat_fs_beats_pat_all = 0;
    std::size_t rows = 0;
    std::vector<bench::TableCell> json_cells;
    for (const SyntheticSpec& spec : UciTableSpecs()) {
        const auto db = PrepareTransactions(spec);
        config.min_sup_rel = spec.bench_min_sup;
        const ModelVariant variants[] = {ModelVariant::kItemAll,
                                         ModelVariant::kItemFs,
                                         ModelVariant::kItemRbf,
                                         ModelVariant::kPatAll, ModelVariant::kPatFs};
        double acc[5] = {0, 0, 0, 0, 0};
        std::vector<std::string> cells = {spec.name};
        for (int v = 0; v < 5; ++v) {
            bench::TableCell cell = bench::RunTableCell(
                db, spec.name, variants[v], LearnerKind::kSvmLinear, config);
            const VariantOutcome& outcome = cell.outcome;
            acc[v] = outcome.ok ? outcome.accuracy : 0.0;
            cells.push_back(outcome.ok ? FormatPercent(outcome.accuracy)
                                       : outcome.error);
            json_cells.push_back(std::move(cell));
        }
        int best = 0;
        for (int v = 1; v < 5; ++v) {
            if (acc[v] > acc[best]) best = v;
        }
        cells.push_back(ModelVariantName(variants[best]));
        table.AddRow(std::move(cells));
        ++rows;
        if (best == 4) ++pat_fs_wins;
        if (acc[4] >= acc[3]) ++pat_fs_beats_pat_all;
        std::fprintf(stderr, "  done %s\n", spec.name.c_str());
    }
    table.Print();
    std::printf("\nshape: Pat_FS best on %zu/%zu datasets;"
                " Pat_FS >= Pat_All on %zu/%zu\n",
                pat_fs_wins, rows, pat_fs_beats_pat_all, rows);
    bench::WriteTableJson("table1", LearnerKindName(LearnerKind::kSvmLinear),
                          config.folds, json_cells);
    return 0;
}
