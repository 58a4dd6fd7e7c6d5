// Machine-readable run reports: a metrics snapshot plus the completed span
// trees of the current thread, serialized to JSON (for BENCH_*.json
// trajectories and `--report` flags) or a human-readable table.
//
// JSON schema (validated by tests/integration/report_smoke_test.cpp):
//   {
//     "name": "<run name>",
//     "host": { "cpu_model": "<CPUID brand string>" },  // {} unless recorded
//     "metrics": {
//       "counters":   { "dfp.fpm.closed.nodes_expanded": 123, ... },
//       "gauges":     { "dfp.core.pipeline.mine_seconds": 0.12, ... },
//       "histograms": { "dfp.core.mmrfs.gain": {
//                          "count": 9, "sum": 1.5,
//                          "buckets": [ {"le": 0.01, "count": 2}, ...,
//                                       {"le": null, "count": 0} ] } },
//       "windows":    { "dfp.serve.latency.total": {
//                          "count": 9, "sum": 1.5, "mean": 0.16,
//                          "p0.5": 0.1, ..., "p0.999": 1.4,
//                          "rel_error": 0.01 } }
//     },
//   The "metrics" object is obs::WriteSnapshotJson's, the same document the
//   periodic snapshot file and GET /metrics.json serve.
//     "guard": [ { "stage": "fpm.closed", "kind": "deadline",
//                  "value": 1234 }, ... ],
//     "spans": [ { "name": "train", "seconds": 0.5,
//                  "annotations": { "candidates": 42 },
//                  "children": [ ... ] } ]
//   }
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfp::obs {

/// One run's observability payload.
struct RunReport {
    std::string name;
    /// CPU model of the host the numbers came from (bench reports set it;
    /// empty when not recorded). The numeric host shape lives in
    /// dfp.bench.* gauges.
    std::string cpu_model;
    MetricsSnapshot metrics;
    /// Degradation events (budget breaches, min_sup escalations, solver
    /// fallbacks) drained from the GuardLog; empty on a clean run.
    std::vector<GuardEvent> guard;
    /// Completed root spans (empty when tracing was disabled).
    std::vector<std::unique_ptr<SpanNode>> spans;
};

/// Snapshots the global registry and *takes* this thread's completed span
/// roots and the process-wide guard log (so consecutive runs don't accumulate
/// each other's trees/events).
RunReport CollectRunReport(std::string name);

/// The CPU's brand string from CPUID (leaves 0x80000002..4), trimmed;
/// "unknown" where the CPU does not report one.
std::string HostCpuModel();

/// Serializes one span subtree as a JSON object.
void WriteSpanJson(std::ostream& out, const SpanNode& node);

/// Serializes the full report as a single JSON document.
void WriteReportJson(std::ostream& out, const RunReport& report);
std::string ReportToJsonString(const RunReport& report);

/// Writes the JSON document to `path`, replacing it atomically
/// (WriteFileAtomic).
Status WriteReportJsonFile(const RunReport& report, const std::string& path);

/// Human-readable dump: indented span tree + aligned metric table.
void WriteReportTable(std::ostream& out, const RunReport& report);

}  // namespace dfp::obs
