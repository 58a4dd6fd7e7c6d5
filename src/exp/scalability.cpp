#include "exp/scalability.hpp"

#include <algorithm>
#include <cstdio>

#include "common/budget.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "core/feature_space.hpp"
#include "core/mmrfs.hpp"
#include "exp/table_printer.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "ml/dtree/c45.hpp"
#include "ml/eval/cross_validation.hpp"
#include "ml/svm/svm.hpp"
#include "obs/trace.hpp"

namespace dfp {

namespace {

// Trains one learner on the training split and returns its test accuracy. A
// failed Train scores 0 and leaves its Status in `note`.
double EvaluateLearner(Classifier&& learner, const FeatureMatrix& train_x,
                       const TransactionDatabase& train,
                       const FeatureMatrix& test_x, const TransactionDatabase& test,
                       std::string* note) {
    const Status st = learner.Train(train_x, train.labels(), train.num_classes());
    if (st.ok()) return learner.Accuracy(test_x, test.labels());
    if (!note->empty()) *note += "; ";
    *note += learner.Name() + ": " + st.ToString();
    return 0.0;
}

// Guard events of `kind` recorded since the log held `mark` events.
std::size_t GuardEventsSince(std::size_t mark, const std::string& kind) {
    const std::vector<GuardEvent> events = GuardLog::Get().Snapshot();
    return static_cast<std::size_t>(
        std::count_if(events.begin() + static_cast<std::ptrdiff_t>(mark),
                      events.end(),
                      [&kind](const GuardEvent& e) { return e.kind == kind; }));
}

}  // namespace

std::vector<ScalabilityRow> RunScalability(const TransactionDatabase& db,
                                           const ScalabilityConfig& config) {
    std::vector<ScalabilityRow> rows;

    if (config.probe_min_sup_one) {
        // The paper's min_sup = 1 row: enumerating every feature combination.
        ScalabilityRow probe;
        probe.min_sup = 1;
        MinerConfig mc;
        mc.min_sup_abs = 1;
        mc.max_patterns = config.pattern_budget;
        Stopwatch watch;
        const auto attempt = EclatMiner().Mine(db, mc);
        if (attempt.ok()) {
            probe.feasible = true;
            probe.patterns = attempt->size();
            probe.time_seconds = watch.ElapsedSeconds();
            probe.note = "enumeration only (no selection/learning)";
        } else {
            probe.note = StrFormat("N/A — enumeration exceeded %zu-pattern budget",
                                   config.pattern_budget);
        }
        rows.push_back(std::move(probe));
    }

    // Stratified 80/20 split shared by all sweep points.
    Rng rng(config.seed);
    const std::size_t folds = 5;  // 4 folds train (80%), 1 fold test
    const auto fold_rows = StratifiedFolds(db.labels(), folds, rng);
    std::vector<std::size_t> train_rows;
    for (std::size_t f = 1; f < folds; ++f) {
        train_rows.insert(train_rows.end(), fold_rows[f].begin(),
                          fold_rows[f].end());
    }
    const TransactionDatabase train = db.Subset(train_rows);
    const TransactionDatabase test = db.Subset(fold_rows[0]);

    for (std::size_t min_sup : config.min_sups) {
        ScalabilityRow row;
        row.min_sup = min_sup;
        obs::Span row_span(StrFormat("scalability.min_sup_%zu", min_sup));
        double mine_seconds = 0.0;

        // 1. Closed-pattern mining over the full database (paper's #Patterns).
        std::vector<Pattern> patterns;
        {
            obs::Span mine_span("mine");
            MinerConfig mc;
            mc.min_sup_abs = min_sup;
            mc.max_pattern_len = config.max_pattern_len;
            mc.max_patterns = config.pattern_budget;
            mc.include_singletons = false;
            auto mined = ClosedMiner().Mine(db, mc);
            if (!mined.ok()) {
                row.note = mined.status().ToString();
                rows.push_back(std::move(row));
                continue;
            }
            patterns = std::move(*mined);
            AttachMetadata(db, &patterns);
            mine_span.Annotate("patterns", static_cast<double>(patterns.size()));
            mine_seconds = mine_span.ElapsedSeconds();
        }
        row.patterns = patterns.size();

        // 2. MMRFS feature selection (time column = mining + selection).
        MmrfsResult selection;
        {
            obs::Span select_span("select");
            MmrfsConfig fs;
            fs.coverage_delta = config.coverage_delta;
            fs.max_features = config.max_features;
            selection = RunMmrfs(db, patterns, fs);
            select_span.Annotate("selected",
                                 static_cast<double>(selection.selected.size()));
            row.time_seconds = mine_seconds + select_span.ElapsedSeconds();
        }
        row.selected = selection.selected.size();

        // 3. Accuracy on the held-out 20%: re-anchor the selected patterns on
        // the training split and train both learners on I ∪ Fs.
        {
            obs::Span eval_span("evaluate");
            std::vector<Pattern> selected;
            selected.reserve(selection.selected.size());
            for (std::size_t idx : selection.selected) {
                selected.push_back(patterns[idx]);
            }
            const FeatureSpace space =
                FeatureSpace::Build(db.num_items(), std::move(selected));
            const FeatureMatrix train_x = space.Transform(train);
            const FeatureMatrix test_x = space.Transform(test);

            // The paper's LIBSVM setting: linear, C = 1 (Table 1's svm_c). The
            // OvO solves are independent, so every thread count gives the
            // same model.
            SmoConfig smo;
            smo.num_threads = 0;
            const std::size_t mark = GuardLog::Get().size();
            row.svm_accuracy = EvaluateLearner(SvmClassifier(smo), train_x, train,
                                               test_x, test, &row.note);
            row.smo_nonconverged = GuardEventsSince(mark, "smo_nonconverged");
            row.c45_accuracy = EvaluateLearner(C45Classifier(), train_x, train,
                                               test_x, test, &row.note);
        }
        row.feasible = true;
        rows.push_back(std::move(row));
    }
    return rows;
}

void PrintScalability(const std::string& dataset, const TransactionDatabase& db,
                      const std::vector<ScalabilityRow>& rows) {
    std::printf("%s: %zu instances, %zu classes, %zu items\n", dataset.c_str(),
                db.num_transactions(), db.num_classes(), db.num_items());
    TablePrinter table({"min_sup", "#Patterns", "#Selected", "Time (s)",
                        "SVM (%)", "C4.5 (%)", "SMO unconv."});
    for (const auto& row : rows) {
        if (!row.feasible && row.patterns == 0) {
            table.AddRow({StrFormat("%zu", row.min_sup), "N/A", "N/A", "N/A",
                          "N/A", "N/A", "N/A"});
            continue;
        }
        if (!row.feasible) continue;
        if (row.min_sup == 1 && row.svm_accuracy == 0.0) {
            table.AddRow({"1", StrFormat("%zu", row.patterns), "-",
                          StrFormat("%.3f", row.time_seconds), "-", "-", "-"});
            continue;
        }
        table.AddRow({StrFormat("%zu", row.min_sup),
                      StrFormat("%zu", row.patterns),
                      StrFormat("%zu", row.selected),
                      StrFormat("%.3f", row.time_seconds),
                      FormatPercent(row.svm_accuracy),
                      FormatPercent(row.c45_accuracy),
                      StrFormat("%zu", row.smo_nonconverged)});
    }
    table.Print();
    for (const auto& row : rows) {
        if (!row.note.empty()) {
            std::printf("  min_sup=%zu: %s\n", row.min_sup, row.note.c_str());
        }
    }
}

}  // namespace dfp
