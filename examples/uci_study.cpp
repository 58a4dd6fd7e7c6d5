// A mini Table-1-style study on one synthetic UCI dataset: all five model
// variants (Item_All / Item_FS / Item_RBF / Pat_All / Pat_FS) under the SVM
// and C4.5 learners, with 10-fold cross validation.
//
// Usage: uci_study [dataset] [folds]
//   dataset — one of the registry names (austral, breast, sonar, iris, ...);
//             default "austral"
//   folds   — CV folds (default 10)
#include <cstdio>
#include <cstdlib>

#include "exp/experiment.hpp"
#include "common/string_util.hpp"
#include "exp/table_printer.hpp"

int main(int argc, char** argv) {
    using namespace dfp;

    const std::string name = argc > 1 ? argv[1] : "austral";
    auto spec = GetSpecByName(name);
    if (!spec.ok()) {
        std::fprintf(stderr, "%s\nknown datasets:", spec.status().ToString().c_str());
        for (const auto& s : UciTableSpecs()) std::fprintf(stderr, " %s", s.name.c_str());
        std::fprintf(stderr, " chess waveform letter\n");
        return 1;
    }

    ExperimentConfig config;
    config.folds = argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 10;
    if (config.folds < 2) {
        std::fprintf(stderr, "folds must be at least 2 (got %s)\n", argv[2]);
        return 1;
    }

    const auto db = PrepareTransactions(*spec);
    std::printf("dataset %s: %zu rows, %zu items, %zu classes\n\n",
                spec->name.c_str(), db.num_transactions(), db.num_items(),
                db.num_classes());

    TablePrinter table({"variant", "svm acc %", "c4.5 acc %", "#cand", "#sel"});
    for (ModelVariant variant :
         {ModelVariant::kItemAll, ModelVariant::kItemFs, ModelVariant::kItemRbf,
          ModelVariant::kPatAll, ModelVariant::kPatFs}) {
        const auto svm = RunVariantCv(db, variant, LearnerKind::kSvmLinear, config);
        const auto c45 = RunVariantCv(db, variant, LearnerKind::kC45, config);
        table.AddRow({ModelVariantName(variant),
                      svm.ok ? FormatPercent(svm.accuracy) : svm.error,
                      c45.ok ? FormatPercent(c45.accuracy) : c45.error,
                      StrFormat("%.0f", svm.mean_candidates),
                      StrFormat("%.0f", svm.mean_selected)});
    }
    table.Print();
    return 0;
}
