// Memory-footprint bench for the mining core.
//
// Records, per miner, wall-clock and pattern throughput next to the process
// peak RSS, plus an SMO section that trains the same letter-shaped solve with
// the kernel-row cache at its 2-row minimum and with every row resident.
// Results land in BENCH_memory.json:
//   dfp.bench.memory.<miner>.seconds / .patterns
//   dfp.bench.memory.smo.cache_{min,all}.seconds, .smo.{rows,steps}
//   dfp.bench.peak_rss_bytes, dfp.svm.cache.*
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "core/feature_space.hpp"
#include "data/synthetic.hpp"
#include "exp/experiment.hpp"
#include "exp/table_printer.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "ml/svm/smo.hpp"
#include "obs/metrics.hpp"

using namespace dfp;

namespace {

TransactionDatabase DenseCorpus(std::size_t rows, std::size_t items,
                                double density, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<ItemId>> txns(rows);
    std::vector<ClassLabel> labels(rows);
    for (std::size_t t = 0; t < rows; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(density)) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % items));
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items, 2);
}

// A letter-shaped SMO solve: the letter recognition shape (20000 rows, 26
// classes, ~112 items) mapped to its item space, then the rows of the first
// `classes` letters against the next `classes`. The classes overlap, so the
// solve takes thousands of steps and revisits kernel rows, which is what the
// row cache is for.
void LetterPair(std::size_t classes, PackedRows* x, std::vector<int>* y) {
    const TransactionDatabase db =
        DatasetToTransactions(GenerateSynthetic(LetterSpec()));
    const FeatureMatrix items = FeatureSpace::ItemsOnly(db.num_items()).Transform(db);
    std::vector<std::size_t> rows;
    y->clear();
    for (std::size_t r = 0; r < db.num_transactions(); ++r) {
        const ClassLabel c = db.label(r);
        if (c >= 2 * classes) continue;
        rows.push_back(r);
        y->push_back(c < classes ? 1 : -1);
    }
    *x = PackedRows(items).SelectRows(rows);
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t threads =
        static_cast<std::size_t>(bench::FlagValue(argc, argv, "threads", 1));
    bench::BeginBenchObservability(threads);
    auto& registry = obs::Registry::Get();

    bench::Section("Mining memory profile");
    const auto db = DenseCorpus(/*rows=*/4000, /*items=*/30, /*density=*/0.40,
                                /*seed=*/11);
    MinerConfig config;
    config.min_sup_rel = 0.02;
    config.num_threads = threads;

    std::vector<std::pair<std::string, std::unique_ptr<Miner>>> miners;
    miners.emplace_back("eclat", std::make_unique<EclatMiner>());
    miners.emplace_back("closed", std::make_unique<ClosedMiner>());

    TablePrinter table({"miner", "patterns", "seconds", "peak RSS MiB"});
    for (const auto& [name, miner] : miners) {
        (void)miner->Mine(db, config);  // warm-up (page cache, allocator)
        Stopwatch watch;
        const auto mined = miner->Mine(db, config);
        const double seconds = watch.ElapsedSeconds();
        if (!mined.ok()) {
            std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                         mined.status().ToString().c_str());
            return 1;
        }
        const double rss = static_cast<double>(bench::PeakRssBytes());
        table.AddRow({name, StrFormat("%zu", mined->size()),
                      StrFormat("%.3f", seconds),
                      StrFormat("%.1f", rss / (1024.0 * 1024.0))});
        const std::string prefix = "dfp.bench.memory." + name;
        registry.GetGauge(prefix + ".seconds").Set(seconds);
        registry.GetGauge(prefix + ".patterns")
            .Set(static_cast<double>(mined->size()));
    }
    table.Print();

    bench::Section("SMO kernel-row cache (rbf): 2 rows vs every row");
    PackedRows x;
    std::vector<int> y;
    LetterPair(/*classes=*/2, &x, &y);
    registry.GetGauge("dfp.bench.memory.smo.rows")
        .Set(static_cast<double>(x.rows()));
    SmoConfig smo;
    smo.kernel.type = KernelType::kRbf;
    smo.kernel.gamma = 0.05;
    smo.c = 10.0;  // a soft margin this hard takes ~3.7k steps on 3093 rows
    TablePrinter smo_table({"config", "rows", "seconds", "steps", "converged"});
    for (const bool all_rows : {false, true}) {
        SmoConfig run = smo;
        // 0 clamps to the 2-row minimum.
        run.cache_bytes = all_rows ? x.rows() * x.rows() * sizeof(double) : 0;
        Stopwatch watch;
        const auto model = TrainSmo(x, y, run);
        const double seconds = watch.ElapsedSeconds();
        if (!model.ok()) {
            std::fprintf(stderr, "smo failed: %s\n",
                         model.status().ToString().c_str());
            return 1;
        }
        const std::string label = all_rows ? "cache_all" : "cache_min";
        smo_table.AddRow({label, StrFormat("%zu", x.rows()),
                          StrFormat("%.3f", seconds),
                          StrFormat("%zu", model->iterations),
                          model->converged ? "yes" : "no"});
        registry.GetGauge("dfp.bench.memory.smo." + label + ".seconds")
            .Set(seconds);
        registry.GetGauge("dfp.bench.memory.smo.steps")
            .Set(static_cast<double>(model->iterations));
    }
    smo_table.Print();

    bench::WriteBenchReport("memory");
    return 0;
}
