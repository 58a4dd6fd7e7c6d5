// Table 3 — Accuracy & time on the Chess dataset (3196 instances, 2 classes,
// ~72 items), sweeping min_sup ∈ {2000, 2200, 2500, 2800, 3000}.
//
// Expected shape (paper): min_sup = 1 enumeration is infeasible; pattern count
// and mining time drop steeply as min_sup rises; accuracy stays roughly flat
// across the swept range.
#include "bench/bench_util.hpp"
#include "exp/scalability.hpp"

using namespace dfp;

int main(int, char**) {
    std::puts("Table 3: accuracy & time on Chess data\n");
    bench::BeginBenchObservability();
    const auto db = PrepareTransactions(ChessSpec());
    ScalabilityConfig config;
    config.min_sups = {2000, 2200, 2500, 2800, 3000};
    config.coverage_delta = 3;
    const auto rows = RunScalability(db, config);
    PrintScalability("chess", db, rows);
    bench::RecordScalabilityRows("table3", rows);
    bench::WriteBenchReport("table3_chess");
    return 0;
}
