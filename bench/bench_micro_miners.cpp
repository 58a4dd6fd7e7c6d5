// Microbenchmarks: frequent-itemset miner throughput vs min_sup and density.
// Run with --benchmark_min_time=0.1x for a quick pass.
#include <benchmark/benchmark.h>

#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "exp/experiment.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"

namespace dfp {
namespace {

const TransactionDatabase& BenchDb() {
    static const TransactionDatabase db = [] {
        SyntheticSpec spec;
        spec.rows = 1000;
        spec.attributes = 14;
        spec.arity = 3;
        spec.classes = 2;
        spec.marginal_skew = 0.35;
        spec.seed = 31;
        const Dataset data = GenerateSynthetic(spec);
        const auto encoder = ItemEncoder::FromSchema(data);
        return TransactionDatabase::FromDataset(data, *encoder);
    }();
    return db;
}

template <typename MinerT>
void MineAt(benchmark::State& state) {
    const auto& db = BenchDb();
    MinerConfig config;
    config.min_sup_rel = static_cast<double>(state.range(0)) / 100.0;
    config.max_pattern_len = 6;
    MinerT miner;
    std::size_t patterns = 0;
    for (auto _ : state) {
        auto result = miner.Mine(db, config);
        if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
        patterns = result->size();
        benchmark::DoNotOptimize(patterns);
    }
    state.counters["patterns"] = static_cast<double>(patterns);
}

void BM_Eclat(benchmark::State& state) { MineAt<EclatMiner>(state); }
void BM_Closed(benchmark::State& state) { MineAt<ClosedMiner>(state); }

BENCHMARK(BM_Eclat)->Arg(5)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Closed)->Arg(5)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

// Closed mining on the chess shape at the perfbench train-dense threshold,
// with max_pattern_len = range(0): 5 is the train-dense bound, 100 exceeds
// every closure (unbounded). The bound prunes the DFS, so the gap between the
// two rows is the work the length bound saves.
void BM_ClosedChess(benchmark::State& state) {
    static const TransactionDatabase db = PrepareTransactions(ChessSpec());
    MinerConfig config;
    config.min_sup_abs = 1600;
    config.max_pattern_len = static_cast<std::size_t>(state.range(0));
    ClosedMiner miner;
    std::size_t patterns = 0;
    for (auto _ : state) {
        auto result = miner.Mine(db, config);
        if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
        patterns = result->size();
        benchmark::DoNotOptimize(patterns);
    }
    state.counters["patterns"] = static_cast<double>(patterns);
}
BENCHMARK(BM_ClosedChess)->Arg(5)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dfp
