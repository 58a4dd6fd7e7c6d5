// Memory-footprint bench for the mining core.
//
// Records, per miner, wall-clock and pattern throughput next to the process
// peak RSS, plus an SMO section that trains the same solve with the
// kernel-row cache at its 2-row minimum and with every row resident. Results
// land in BENCH_memory.json:
//   dfp.bench.memory.<miner>.seconds / .patterns
//   dfp.bench.memory.smo.cache_{min,all}.seconds
//   dfp.bench.peak_rss_bytes, dfp.svm.cache.*
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
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

// Two overlapping 0/1 clouds (the learners' input is binary): separable
// enough that SMO converges, noisy enough that it takes real kernel work to
// get there. Even features lean to the +1 class, odd ones to the −1 class.
void TwoClassClouds(std::size_t n, std::size_t d, std::uint64_t seed,
                    PackedRows* x, std::vector<int>* y) {
    Rng rng(seed);
    FeatureMatrix m(n, d);
    y->assign(n, 1);
    for (std::size_t r = 0; r < n; ++r) {
        const int label = r % 2 == 0 ? 1 : -1;
        (*y)[r] = label;
        for (std::size_t c = 0; c < d; ++c) {
            const bool leans = (c % 2 == 0) == (label == 1);
            if (rng.Bernoulli(leans ? 0.6 : 0.3)) m.Set(r, c);
        }
    }
    *x = PackedRows(m);
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
    TwoClassClouds(/*n=*/900, /*d=*/24, /*seed=*/23, &x, &y);
    SmoConfig smo;
    smo.kernel.type = KernelType::kRbf;
    smo.kernel.gamma = 0.05;
    TablePrinter smo_table({"config", "seconds", "steps", "converged"});
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
        smo_table.AddRow({label, StrFormat("%.3f", seconds),
                          StrFormat("%zu", model->iterations),
                          model->converged ? "yes" : "no"});
        registry.GetGauge("dfp.bench.memory.smo." + label + ".seconds")
            .Set(seconds);
    }
    smo_table.Print();

    bench::WriteBenchReport("memory");
    return 0;
}
