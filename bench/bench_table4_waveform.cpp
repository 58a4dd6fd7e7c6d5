// Table 4 — Accuracy & time on the Waveform dataset (5000 instances,
// 3 classes, ~105 items), sweeping min_sup ∈ {80, 100, 150, 200}.
//
// Expected shape (paper): min_sup = 1 enumerates millions of patterns (feature
// selection infeasible); the sweep shows pattern counts in the thousands to
// tens of thousands, time falling with min_sup, accuracy roughly flat.
#include "bench/bench_util.hpp"
#include "exp/scalability.hpp"

using namespace dfp;

int main(int, char**) {
    std::puts("Table 4: accuracy & time on Waveform data\n");
    bench::BeginBenchObservability();
    const auto db = PrepareTransactions(WaveformSpec());
    ScalabilityConfig config;
    config.min_sups = {80, 100, 150, 200};
    config.max_pattern_len = 5;
    config.coverage_delta = 3;
    const auto rows = RunScalability(db, config);
    PrintScalability("waveform", db, rows);
    bench::RecordScalabilityRows("table4", rows);
    bench::WriteBenchReport("table4_waveform");
    return 0;
}
