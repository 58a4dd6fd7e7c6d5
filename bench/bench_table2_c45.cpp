// Table 2 — C4.5 accuracy on frequent combined features vs single features.
//
// Same protocol as Table 1 with the C4.5 learner and the paper's four columns
// (Item_All, Item_FS, Pat_All, Pat_FS). Each cell's mean, fold standard
// error and guard event counts also go to BENCH_table2.json.
//
// Flags: --folds=N (default 10)
#include <cstdio>

#include "bench/bench_util.hpp"

using namespace dfp;

int main(int argc, char** argv) {
    ExperimentConfig config;
    config.folds = static_cast<std::size_t>(bench::FlagValue(argc, argv, "folds", 10));

    std::printf("Table 2: accuracy by C4.5 (%zu-fold CV)\n\n", config.folds);
    TablePrinter table(
        {"dataset", "Item_All", "Item_FS", "Pat_All", "Pat_FS", "best"});
    std::size_t pat_fs_wins = 0;
    std::size_t rows = 0;
    std::vector<bench::TableCell> json_cells;
    for (const SyntheticSpec& spec : UciTableSpecs()) {
        const auto db = PrepareTransactions(spec);
        config.min_sup_rel = spec.bench_min_sup;
        const ModelVariant variants[] = {ModelVariant::kItemAll,
                                         ModelVariant::kItemFs,
                                         ModelVariant::kPatAll, ModelVariant::kPatFs};
        double acc[4] = {0, 0, 0, 0};
        std::vector<std::string> cells = {spec.name};
        for (int v = 0; v < 4; ++v) {
            bench::TableCell cell = bench::RunTableCell(
                db, spec.name, variants[v], LearnerKind::kC45, config);
            const VariantOutcome& outcome = cell.outcome;
            acc[v] = outcome.ok ? outcome.accuracy : 0.0;
            cells.push_back(outcome.ok ? FormatPercent(outcome.accuracy)
                                       : outcome.error);
            json_cells.push_back(std::move(cell));
        }
        int best = 0;
        for (int v = 1; v < 4; ++v) {
            if (acc[v] > acc[best]) best = v;
        }
        cells.push_back(ModelVariantName(variants[best]));
        table.AddRow(std::move(cells));
        ++rows;
        if (best == 3) ++pat_fs_wins;
        std::fprintf(stderr, "  done %s\n", spec.name.c_str());
    }
    table.Print();
    std::printf("\nshape: Pat_FS best on %zu/%zu datasets\n", pat_fs_wins, rows);
    bench::WriteTableJson("table2", LearnerKindName(LearnerKind::kC45),
                          config.folds, json_cells);
    return 0;
}
