// Table 5 — Accuracy & time on the Letter Recognition dataset
// (20000 instances, 26 classes, ~112 items), sweeping
// min_sup ∈ {3000, 3500, 4000, 4500}.
//
// Expected shape (paper): min_sup = 1 enumerates millions of patterns; the
// sweep yields thousands of patterns with time falling as min_sup rises;
// accuracy roughly flat. The SVM column is the linear one-vs-one SMO (C = 1),
// as the paper ran LIBSVM: 325 class pairs of ≈ 1 200 training rows each.
#include "bench/bench_util.hpp"
#include "exp/scalability.hpp"

using namespace dfp;

int main(int, char**) {
    std::puts("Table 5: accuracy & time on Letter Recognition data\n");
    bench::BeginBenchObservability();
    const auto db = PrepareTransactions(LetterSpec());
    ScalabilityConfig config;
    config.min_sups = {3000, 3500, 4000, 4500};
    config.max_pattern_len = 5;
    config.coverage_delta = 2;
    config.max_features = 600;
    const auto rows = RunScalability(db, config);
    PrintScalability("letter", db, rows);
    bench::RecordScalabilityRows("table5", rows);
    bench::WriteBenchReport("table5_letter");
    return 0;
}
