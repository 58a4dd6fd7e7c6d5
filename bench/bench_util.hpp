// Shared helpers for the paper-table bench harnesses.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/popcount.hpp"
#include "common/string_util.hpp"
#include "exp/experiment.hpp"
#include "exp/table_printer.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace dfp::bench {

/// Process peak resident set size in bytes (0 when unavailable). Linux
/// reports ru_maxrss in KiB.
inline std::size_t PeakRssBytes() {
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
    return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

/// Turns on span collection and clears any metrics left over from process
/// start, so the BENCH_*.json written at exit covers exactly this run.
/// `threads` is recorded as the dfp.bench.threads gauge so every BENCH_*.json
/// states the worker-thread count its numbers were measured with.
inline void BeginBenchObservability(std::size_t threads = 1) {
    dfp::obs::Registry::Get().ResetValues();
    dfp::obs::Tracer::Get().Clear();
    dfp::obs::EnableTracing(true);
    dfp::obs::Registry::Get().GetGauge("dfp.bench.threads").Set(
        static_cast<double>(threads));
}

/// Serializes the run's metrics + span trees to BENCH_<name>.json in the
/// working directory; these files are the machine-tracked perf trajectory
/// (git-ignored — the numbers live in EXPERIMENTS.md / CI artifacts).
inline void WriteBenchReport(const std::string& name) {
    // Every bench report carries the memory footprint alongside the timing
    // spans (process peak RSS), and the host shape its numbers came from: hardware threads and whether
    // the cover counts ran the AVX-512 popcount body.
    auto& registry = dfp::obs::Registry::Get();
    registry.GetGauge("dfp.bench.peak_rss_bytes").Set(
        static_cast<double>(PeakRssBytes()));
    registry.GetGauge("dfp.bench.hw_threads").Set(
        static_cast<double>(std::max(1u, std::thread::hardware_concurrency())));
    registry.GetGauge("dfp.bench.popcount_avx512").Set(
        dfp::Avx512PopcountBody() != nullptr ? 1.0 : 0.0);
    const dfp::obs::RunReport report = dfp::obs::CollectRunReport(name);
    const std::string path = "BENCH_" + name + ".json";
    const Status st = dfp::obs::WriteReportJsonFile(report, path);
    if (st.ok()) {
        std::printf("\n[bench] wrote %s (%zu counters, %zu gauges, %zu spans)\n",
                    path.c_str(), report.metrics.counters.size(),
                    report.metrics.gauges.size(), report.spans.size());
    } else {
        std::fprintf(stderr, "[bench] report failed: %s\n",
                     st.ToString().c_str());
    }
}

/// The three datasets used in Figures 1–3 of the paper, with a per-dataset
/// mining threshold (sonar's 60 attributes need a higher floor to keep the
/// candidate space enumerable, as in the paper's own support settings).
struct FigureDataset {
    std::string name;
    double min_sup_rel;
};

inline std::vector<FigureDataset> FigureDatasets() {
    return {{"austral", 0.05}, {"breast", 0.05}, {"sonar", 0.30}};
}

/// Prints a section header.
inline void Section(const std::string& title) {
    std::printf("\n=== %s ===\n", title.c_str());
}

/// Parses "--folds=N"-style flags very loosely; returns fallback when absent.
inline long FlagValue(int argc, char** argv, const std::string& name,
                      long fallback) {
    const std::string prefix = "--" + name + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0) {
            long v = fallback;
            if (ParseInt(arg.substr(prefix.size()), &v)) return v;
        }
    }
    return fallback;
}

}  // namespace dfp::bench
