// Shared helpers for the paper-table bench harnesses.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.hpp"
#include "common/popcount.hpp"
#include "common/string_util.hpp"
#include "exp/experiment.hpp"
#include "exp/scalability.hpp"
#include "exp/table_printer.hpp"
#include "obs/json.hpp"
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

/// Records each row of a Tables 3–5 sweep as gauges
/// dfp.bench.<table>.min_sup_<min_sup>.<field>, so the BENCH_<name>.json that
/// WriteBenchReport writes carries the table: feasible (0/1), patterns,
/// selected, time_seconds (mining + selection), svm_accuracy, c45_accuracy
/// and smo_nonconverged.
inline void RecordScalabilityRows(const std::string& table,
                                  const std::vector<ScalabilityRow>& rows) {
    auto& registry = dfp::obs::Registry::Get();
    for (const ScalabilityRow& row : rows) {
        const std::string prefix =
            StrFormat("dfp.bench.%s.min_sup_%zu.", table.c_str(), row.min_sup);
        auto set = [&](const char* field, double value) {
            registry.GetGauge(prefix + field).Set(value);
        };
        set("feasible", row.feasible ? 1.0 : 0.0);
        set("patterns", static_cast<double>(row.patterns));
        set("selected", static_cast<double>(row.selected));
        set("time_seconds", row.time_seconds);
        set("svm_accuracy", row.svm_accuracy);
        set("c45_accuracy", row.c45_accuracy);
        set("smo_nonconverged", static_cast<double>(row.smo_nonconverged));
    }
}

/// One cell of a paper accuracy table: a variant's CV outcome on one dataset,
/// with the guard events (SMO non-convergence, budget breaches) its folds
/// recorded, counted by "<stage>.<kind>".
struct TableCell {
    std::string dataset;
    std::string variant;
    VariantOutcome outcome;
    std::map<std::string, std::size_t> guard_events;
};

/// Runs one cell. The guard log is drained before and after, so the counts
/// are exactly this cell's events.
inline TableCell RunTableCell(const TransactionDatabase& db,
                              const std::string& dataset, ModelVariant variant,
                              LearnerKind learner, const ExperimentConfig& config) {
    TableCell cell{dataset, ModelVariantName(variant), {}, {}};
    (void)GuardLog::Get().Drain();
    cell.outcome = RunVariantCv(db, variant, learner, config);
    for (const GuardEvent& e : GuardLog::Get().Drain()) {
        ++cell.guard_events[e.stage + "." + e.kind];
    }
    return cell;
}

/// Standard error of the mean fold accuracy: the sample standard deviation
/// over folds divided by √k (0 with fewer than two folds).
inline double FoldStandardError(const std::vector<double>& folds) {
    const std::size_t k = folds.size();
    if (k < 2) return 0.0;
    double mean = 0.0;
    for (double a : folds) mean += a;
    mean /= static_cast<double>(k);
    double ss = 0.0;
    for (double a : folds) ss += (a - mean) * (a - mean);
    return std::sqrt(ss / static_cast<double>(k - 1)) /
           std::sqrt(static_cast<double>(k));
}

/// Writes BENCH_<name>.json in the working directory: the learner, fold
/// count and host shape, then per cell its mean accuracy, fold standard
/// error, per-fold accuracies and guard event counts.
inline void WriteTableJson(const std::string& name, const char* learner,
                           std::size_t folds, const std::vector<TableCell>& cells) {
    const std::string path = "BENCH_" + name + ".json";
    std::ofstream out(path);
    out << "{\"bench\": ";
    obs::WriteJsonString(out, name);
    out << ", \"learner\": ";
    obs::WriteJsonString(out, learner);
    out << ", \"folds\": " << folds << ", \"hw_threads\": "
        << std::max(1u, std::thread::hardware_concurrency())
        << ", \"popcount\": ";
    obs::WriteJsonString(out, PopcountPath());
    out << ",\n \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const TableCell& cell = cells[i];
        out << (i == 0 ? "\n  " : ",\n  ") << "{\"dataset\": ";
        obs::WriteJsonString(out, cell.dataset);
        out << ", \"variant\": ";
        obs::WriteJsonString(out, cell.variant);
        out << ", \"ok\": " << (cell.outcome.ok ? "true" : "false");
        if (!cell.outcome.ok) {
            out << ", \"error\": ";
            obs::WriteJsonString(out, cell.outcome.error);
        }
        out << ", \"mean\": ";
        obs::WriteJsonNumber(out, cell.outcome.accuracy);
        out << ", \"fold_se\": ";
        obs::WriteJsonNumber(out, FoldStandardError(cell.outcome.fold_accuracies));
        out << ", \"fold_accuracies\": [";
        for (std::size_t f = 0; f < cell.outcome.fold_accuracies.size(); ++f) {
            if (f > 0) out << ", ";
            obs::WriteJsonNumber(out, cell.outcome.fold_accuracies[f]);
        }
        out << "], \"guard_events\": {";
        bool first = true;
        for (const auto& [event, count] : cell.guard_events) {
            out << (first ? "" : ", ");
            first = false;
            obs::WriteJsonString(out, event);
            out << ": " << count;
        }
        out << "}}";
    }
    out << "\n]}\n";
    if (out) {
        std::printf("\n[bench] wrote %s (%zu cells)\n", path.c_str(), cells.size());
    } else {
        std::fprintf(stderr, "[bench] could not write %s\n", path.c_str());
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
