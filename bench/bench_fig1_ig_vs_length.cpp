// Figure 1 — Information gain vs. pattern length (austral, breast, sonar).
//
// The paper's scatter plots show that some frequent patterns (length >= 2)
// reach higher information gain than any single feature. We reproduce the
// figure as a per-length summary table (count / mean / max IG per pattern
// length) and check the headline shape: max IG over combined patterns exceeds
// the best single feature.
#include <algorithm>
#include <cstdio>

#include "core/measures.hpp"
#include "core/pipeline.hpp"
#include "bench/bench_util.hpp"

using namespace dfp;

int main(int argc, char** argv) {
    const auto max_len =
        static_cast<std::size_t>(bench::FlagValue(argc, argv, "max-len", 5));
    std::puts("Figure 1: information gain vs pattern length");
    std::printf("(closed patterns, per-dataset min_sup, max length %zu)\n",
                max_len);

    for (const auto& fd : bench::FigureDatasets()) {
        const std::string& name = fd.name;
        const auto spec = GetSpecByName(name);
        const auto db = PrepareTransactions(*spec);
        bench::Section(StrFormat("%s (%zu rows, %zu items)", name.c_str(),
                                 db.num_transactions(), db.num_items()));

        // Single features.
        double best_single = 0.0;
        std::vector<std::size_t> class_support;
        for (ItemId i = 0; i < db.num_items(); ++i) {
            const auto stats = StatsOfCover(db, db.ItemCover(i), &class_support);
            best_single = std::max(best_single, InformationGain(stats));
        }

        PipelineConfig config;
        config.miner.min_sup_rel = fd.min_sup_rel;
        config.miner.max_pattern_len = max_len;
        PatternClassifierPipeline pipeline(config);
        auto mined = pipeline.MineCandidates(db);
        if (!mined.ok()) {
            std::printf("mining failed: %s\n", mined.status().ToString().c_str());
            continue;
        }

        std::vector<std::size_t> count(max_len + 1, 0);
        std::vector<double> sum(max_len + 1, 0.0);
        std::vector<double> peak(max_len + 1, 0.0);
        for (const Pattern& p : *mined) {
            const double ig = PatternRelevance(RelevanceMeasure::kInfoGain, db, p);
            const std::size_t len = std::min(p.length(), max_len);
            count[len]++;
            sum[len] += ig;
            peak[len] = std::max(peak[len], ig);
        }

        TablePrinter table({"length", "#patterns", "mean IG", "max IG"});
        table.AddRow({"1 (single)", StrFormat("%zu", db.num_items()), "-",
                      StrFormat("%.4f", best_single)});
        double best_pattern = 0.0;
        for (std::size_t len = 2; len <= max_len; ++len) {
            if (count[len] == 0) continue;
            table.AddRow({StrFormat("%zu", len), StrFormat("%zu", count[len]),
                          StrFormat("%.4f", sum[len] / count[len]),
                          StrFormat("%.4f", peak[len])});
            best_pattern = std::max(best_pattern, peak[len]);
        }
        table.Print();
        std::printf("shape check: max pattern IG %.4f %s max single-feature IG %.4f\n",
                    best_pattern, best_pattern > best_single ? ">" : "<=",
                    best_single);
    }
    return 0;
}
