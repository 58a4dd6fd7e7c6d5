// Parallel-layer throughput: each miner on a dense synthetic corpus at
// 1 / 2 / 4 / 8 worker threads (ceiling from --threads=, default 8), plus
// one serial MMRFS selection row over the closed pool of the same corpus.
//
// The parallel layer's contract is "same output, less wall clock": the
// equivalence + decomposition suites (ctest -L dfp_parallel) certify the
// first half, this bench records the second. Results land in
// BENCH_parallel.json as
//   dfp.bench.parallel.<miner>.t<k>.seconds / .spread_seconds / .speedup
//     / .efficiency
//   dfp.bench.parallel.mmrfs.t1.seconds / .speedup / .efficiency
//     / .selected / .redundancy_evals
// plus the usual dfp.parallel.* pool counters, so the perf trajectory of the
// recursive fan-out is machine-tracked alongside the paper tables.
//
// A single run of a ~10 ms mine can land anywhere in a 3× spread when the
// scheduler deschedules it, and on a shared host the median of many runs in
// one process still moves between processes (one binary read the closed
// miner's t2 speedup anywhere from 0.8× to 1.9×). So each miner cell is
// timed in kProcesses forked child processes, one after another; each child
// makes one warm-up run and reports the median of kRuns timed runs. The
// cell's seconds is the median of the children's medians, and
// .spread_seconds is their max − min. The MMRFS row is serial and timed in
// process.
//
// Efficiency is speedup normalised by the *usable* hardware parallelism:
//   efficiency(t) = speedup(t) / min(t, hardware_concurrency)
// so the number is portable across hosts — on an 8-way box 6x at 8 threads
// reads 0.75, while on a single-core container (where every thread count
// time-slices one core and raw speedup degenerates to ~1.0x) it reads the
// scheduling overhead directly. The bench_diff gate in
// bench/baselines/parallel.json bounds efficiency, not raw speedup, for
// exactly this reason; the raw >=6x mining target at 8 threads corresponds
// to efficiency >= 0.75 on >=8-way hardware. MMRFS is gated on its serial
// seconds and its redundancy-evaluation count instead.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "core/mmrfs.hpp"
#include "exp/table_printer.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "obs/metrics.hpp"

using namespace dfp;

namespace {

// Dense random transactions: enough structure that mining fans out over many
// first-level subproblems, dense enough that each subproblem has real work
// below the first level (so the recursive decomposition actually splits).
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

// Timed runs per cell (odd, so the median is one of them).
constexpr std::size_t kRuns = 9;

// Median wall-clock seconds of kRuns calls of run().
template <typename Fn>
double MedianSeconds(Fn&& run) {
    std::vector<double> seconds;
    for (std::size_t i = 0; i < kRuns; ++i) {
        Stopwatch watch;
        run();
        seconds.push_back(watch.ElapsedSeconds());
    }
    std::nth_element(seconds.begin(), seconds.begin() + kRuns / 2, seconds.end());
    return seconds[kRuns / 2];
}

// Child processes per miner cell (odd, so the median is one of them).
constexpr std::size_t kProcesses = 5;

// Runs run() once, then MedianSeconds(run), in each of kProcesses forked
// children in turn, and returns the children's medians (empty if a child
// failed). Fork only while this process runs no other thread: each Mine
// call makes and joins its own pool, so none is alive between calls.
template <typename Fn>
std::vector<double> ChildMedians(Fn&& run) {
    std::vector<double> medians;
    for (std::size_t p = 0; p < kProcesses; ++p) {
        int fds[2];
        if (pipe(fds) != 0) return {};
        const pid_t pid = fork();
        if (pid < 0) {
            close(fds[0]);
            close(fds[1]);
            return {};
        }
        if (pid == 0) {
            close(fds[0]);
            run();
            const double median = MedianSeconds(run);
            const bool sent = write(fds[1], &median, sizeof(median)) ==
                              static_cast<ssize_t>(sizeof(median));
            _exit(sent ? 0 : 1);  // no atexit handlers, no stdio flush
        }
        close(fds[1]);
        double median = 0.0;
        const bool got = read(fds[0], &median, sizeof(median)) ==
                         static_cast<ssize_t>(sizeof(median));
        close(fds[0]);
        int status = 0;
        const bool exited = waitpid(pid, &status, 0) == pid &&
                            WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (!got || !exited) return {};
        medians.push_back(median);
    }
    return medians;
}

struct MinerRow {
    std::string name;
    std::unique_ptr<Miner> miner;
};

double HardwareThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1.0 : static_cast<double>(hw);
}

// speedup normalised by the parallelism the host can actually deliver at
// this thread count; 1.0 = perfect scaling on this hardware.
double Efficiency(double speedup, std::size_t threads) {
    const double usable = std::min(static_cast<double>(threads),
                                   HardwareThreads());
    return usable > 0.0 ? speedup / usable : speedup;
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t max_threads = static_cast<std::size_t>(
        bench::FlagValue(argc, argv, "threads", 8));
    bench::BeginBenchObservability(max_threads);
    auto& registry = obs::Registry::Get();

    // 1 / 2 / 4 / 8 capped by --threads=, with the cap itself appended when
    // it is not a member (e.g. --threads=6 measures 1/2/4/6).
    std::vector<std::size_t> thread_counts;
    for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
        if (t <= max_threads) thread_counts.push_back(t);
    }
    if (thread_counts.empty() || thread_counts.back() != max_threads) {
        thread_counts.push_back(max_threads);
    }

    std::printf("Parallel mining + MMRFS throughput (threads:");
    for (const std::size_t t : thread_counts) std::printf(" %zu", t);
    std::printf("; host hw_threads=%.0f)\n\n", HardwareThreads());

    const auto db = DenseCorpus(/*rows=*/4000, /*items=*/30, /*density=*/0.40,
                                /*seed=*/11);
    MinerConfig config;
    config.min_sup_rel = 0.02;

    std::vector<MinerRow> miners;
    miners.push_back({"eclat", std::make_unique<EclatMiner>()});
    miners.push_back({"closed", std::make_unique<ClosedMiner>()});

    TablePrinter table({"stage", "threads", "output", "seconds", "spread",
                        "speedup", "efficiency"});
    for (const auto& row : miners) {
        double serial_seconds = 0.0;
        for (const std::size_t threads : thread_counts) {
            config.num_threads = threads;
            // One checked mine in process for the output, then the timed
            // children.
            const auto mined = row.miner->Mine(db, config);
            if (!mined.ok()) {
                std::fprintf(stderr, "%s failed: %s\n", row.name.c_str(),
                             mined.status().ToString().c_str());
                return 1;
            }
            std::vector<double> medians =
                ChildMedians([&] { (void)row.miner->Mine(db, config); });
            if (medians.size() != kProcesses) {
                std::fprintf(stderr, "%s t%zu: a timing child failed\n",
                             row.name.c_str(), threads);
                return 1;
            }
            std::sort(medians.begin(), medians.end());
            const double seconds = medians[kProcesses / 2];
            const double spread = medians.back() - medians.front();
            if (threads == 1) serial_seconds = seconds;
            const double speedup = seconds > 0.0 ? serial_seconds / seconds : 1.0;
            const double efficiency = Efficiency(speedup, threads);
            table.AddRow({row.name, StrFormat("%zu", threads),
                          StrFormat("%zu patterns", mined->size()),
                          StrFormat("%.3f", seconds),
                          StrFormat("%.3f", spread),
                          StrFormat("%.2fx", speedup),
                          StrFormat("%.2f", efficiency)});
            const std::string prefix =
                "dfp.bench.parallel." + row.name + ".t" + std::to_string(threads);
            registry.GetGauge(prefix + ".seconds").Set(seconds);
            registry.GetGauge(prefix + ".spread_seconds").Set(spread);
            registry.GetGauge(prefix + ".speedup").Set(speedup);
            registry.GetGauge(prefix + ".efficiency").Set(efficiency);
            registry.GetGauge(prefix + ".patterns")
                .Set(static_cast<double>(mined->size()));
        }
    }

    // MMRFS selection over the closed pool of the same corpus. Selection is
    // serial, so it gets one row at t1 (speedup and efficiency are 1 by
    // definition; the gauges keep the key layout of the miner rows).
    auto pool_result = ClosedMiner().Mine(db, config);
    if (!pool_result.ok()) {
        std::fprintf(stderr, "closed pool mining failed: %s\n",
                     pool_result.status().ToString().c_str());
        return 1;
    }
    std::vector<Pattern> candidates = std::move(*pool_result);
    AttachMetadata(db, &candidates);
    MmrfsConfig select;
    select.coverage_delta = 3;
    const auto& evals = registry.GetCounter("dfp.core.mmrfs.redundancy_evals");
    const auto evals_before = evals.value();
    const MmrfsResult result = RunMmrfs(db, candidates, select);  // warm-up
    const auto run_evals = evals.value() - evals_before;
    const double seconds =
        MedianSeconds([&] { (void)RunMmrfs(db, candidates, select); });
    table.AddRow({"mmrfs", "1",
                  StrFormat("%zu selected", result.selected.size()),
                  StrFormat("%.3f", seconds), "-", "1.00x", "1.00"});
    const std::string prefix = "dfp.bench.parallel.mmrfs.t1";
    registry.GetGauge(prefix + ".seconds").Set(seconds);
    registry.GetGauge(prefix + ".speedup").Set(1.0);
    registry.GetGauge(prefix + ".efficiency").Set(1.0);
    registry.GetGauge(prefix + ".selected")
        .Set(static_cast<double>(result.selected.size()));
    registry.GetGauge(prefix + ".redundancy_evals")
        .Set(static_cast<double>(run_evals));
    table.Print();

    bench::WriteBenchReport("parallel");
    return 0;
}
