// Significance-filter sweep (BENCH_significance.json, EXPERIMENTS.md):
//
// On the standard 4000×30 corpus (planted-pattern synthetic: 10 categorical
// attributes × arity 3 → 30 items, hidden concepts + XOR templates +
// class-neutral background correlation, 80/20 split) measure what the
// statistical-significance stage (DESIGN.md §18) does to the selected
// feature set and to held-out accuracy:
//
//   baseline          sig_test=none — today's MMRFS-only path
//   chi2 / fisher     × alpha ∈ {0.5, 0.05, 0.01}
//                     × correction ∈ {none, bonferroni, bh}
//
// Candidates are mined once and every configuration reuses them through
// TrainWithCandidates, so the sweep isolates the filter: any change in
// |Fs| or accuracy is the filter's doing. Per-cell gauges land as
//   dfp.bench.stats.<test>_<correction>_a<alpha>.{rejected,selected,accuracy}
// plus dfp.bench.stats.baseline.{selected,accuracy} for tools/bench_diff.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "exp/table_printer.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "obs/metrics.hpp"
#include "stats/significance.hpp"

using namespace dfp;

namespace {

/// 4000 rows × 30 items with planted discriminative structure and enough
/// class-neutral background correlation that the miner emits frequent but
/// label-independent patterns — the population the filter exists to reject.
TransactionDatabase Corpus() {
    SyntheticSpec spec;
    spec.name = "bench_significance";
    spec.rows = 4000;
    spec.attributes = 10;
    spec.arity = 3;
    spec.classes = 2;
    spec.patterns_per_class = 3;
    spec.xor_patterns_per_class = 2;
    spec.label_noise = 0.05;
    spec.background_prob = 0.30;
    spec.seed = 11;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

std::string AlphaTag(double alpha) {
    // 0.05 -> "a0.05" (gauge-name friendly, no trailing zeros).
    return StrFormat("a%g", alpha);
}

}  // namespace

int main(int argc, char** argv) {
    const auto threads = static_cast<std::size_t>(
        bench::FlagValue(argc, argv, "threads", 1));
    bench::BeginBenchObservability(threads);
    auto& registry = obs::Registry::Get();

    bench::Section("Significance sweep: 4000x30 planted-pattern corpus");
    const auto db = Corpus();
    std::vector<std::size_t> train_rows;
    std::vector<std::size_t> test_rows;
    for (std::size_t r = 0; r < db.num_transactions(); ++r) {
        (r % 5 == 0 ? test_rows : train_rows).push_back(r);
    }
    const auto train = db.Subset(train_rows);
    const auto test = db.Subset(test_rows);
    std::printf("train %zu rows / test %zu rows, %zu items\n",
                train.num_transactions(), test.num_transactions(),
                train.num_items());

    PipelineConfig base_config;
    base_config.miner.min_sup_rel = 0.10;
    base_config.miner.max_pattern_len = 4;
    base_config.mmrfs.coverage_delta = 4;
    base_config.num_threads = threads;

    // Mine once; every configuration reruns only significance → MMRFS →
    // transform → learn on the identical candidate pool.
    Stopwatch mine_watch;
    auto candidates = PatternClassifierPipeline(base_config)
                          .MineCandidates(train);
    if (!candidates.ok()) {
        std::fprintf(stderr, "mining failed: %s\n",
                     candidates.status().ToString().c_str());
        return 1;
    }
    std::printf("mined %zu candidates in %.2fs\n", candidates->size(),
                mine_watch.ElapsedSeconds());

    TablePrinter table({"test", "correction", "alpha", "rejected", "|Fs|",
                        "held-out acc", "train s"});
    auto run_cell = [&](SigTest sig_test, Correction correction,
                        double alpha) -> bool {
        PipelineConfig config = base_config;
        config.significance.test = sig_test;
        config.significance.alpha = alpha;
        config.significance.correction = correction;
        PatternClassifierPipeline pipeline(config);
        Stopwatch watch;
        const Status st = pipeline.TrainWithCandidates(
            train, *candidates, std::make_unique<NaiveBayesClassifier>());
        if (!st.ok()) {
            std::fprintf(stderr, "train failed: %s\n", st.ToString().c_str());
            return false;
        }
        const double seconds = watch.ElapsedSeconds();
        const double accuracy = pipeline.Accuracy(test);
        const auto& stats = pipeline.stats();
        const bool is_baseline = sig_test == SigTest::kNone;
        table.AddRow({SigTestName(sig_test),
                      is_baseline ? "-" : CorrectionName(correction),
                      is_baseline ? "-" : StrFormat("%g", alpha),
                      std::to_string(stats.num_sig_rejected),
                      std::to_string(stats.num_selected),
                      StrFormat("%.4f", accuracy), StrFormat("%.2f", seconds)});
        const std::string prefix =
            is_baseline ? "dfp.bench.stats.baseline"
                        : StrFormat("dfp.bench.stats.%s_%s_%s",
                                    SigTestName(sig_test),
                                    CorrectionName(correction),
                                    AlphaTag(alpha).c_str());
        if (!is_baseline) {
            registry.GetGauge(prefix + ".rejected")
                .Set(static_cast<double>(stats.num_sig_rejected));
        }
        registry.GetGauge(prefix + ".selected")
            .Set(static_cast<double>(stats.num_selected));
        registry.GetGauge(prefix + ".accuracy").Set(accuracy);
        return true;
    };

    // MMRFS-only baseline, then the full test × correction × alpha grid.
    if (!run_cell(SigTest::kNone, Correction::kNone, 0.05)) return 1;
    for (SigTest sig_test : {SigTest::kChi2, SigTest::kFisher}) {
        for (Correction correction : {Correction::kNone, Correction::kBonferroni,
                                      Correction::kBenjaminiHochberg}) {
            for (double alpha : {0.5, 0.05, 0.01}) {
                if (!run_cell(sig_test, correction, alpha)) return 1;
            }
        }
    }
    table.Print();

    bench::WriteBenchReport("significance");
    return 0;
}
