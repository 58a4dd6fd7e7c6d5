// Metric exporters for live serving: Prometheus text exposition, periodic
// JSON snapshots, and a minimal HTTP side-port for `GET /metrics`.
//
// * RenderPrometheus() turns a MetricsSnapshot into Prometheus text
//   exposition format 0.0.4: counters and gauges as single samples,
//   fixed-bucket histograms as `_bucket{le=...}` series with CUMULATIVE
//   counts plus `_sum`/`_count`, and HDR histograms (cumulative and
//   trailing-window) as quantile summaries (p50/p90/p95/p99/p99.9). Output
//   is byte-deterministic for a given snapshot: sections in a fixed order,
//   names alphabetical within each section — so the protocol `{"op":
//   "metrics"}` verb and the HTTP port provably serve identical payloads.
// * File snapshots go through common/fileio's WriteFileAtomic (tmp+rename):
//   a reader never observes a half-written snapshot file.
//   PeriodicSnapshotWriter drives it on a background thread for
//   sidecar-style collection (tail the file, no port).
// * MetricsHttpServer answers `GET /metrics` (Prometheus), `GET
//   /metrics.json` (JSON snapshot) and `GET /healthz` (liveness/readiness)
//   on its own listener so scrapers and probes never consume
//   prediction-protocol connection slots. Connections are handled
//   sequentially with a receive timeout — scraping is a once-per-seconds
//   affair and must stay boring.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>

#include "common/fileio.hpp"
#include "common/socket.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"

namespace dfp::obs {

/// Maps a dotted metric name onto the Prometheus charset: every character
/// outside [a-zA-Z0-9_:] becomes '_' ("dfp.serve.latency_ms" ->
/// "dfp_serve_latency_ms"); a leading digit is prefixed with '_'.
std::string PrometheusName(std::string_view name);

/// Escapes a HELP docstring per the exposition format (backslash and
/// newline).
std::string PrometheusHelpEscape(std::string_view text);

/// Renders the full snapshot as Prometheus text exposition (version 0.0.4).
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

/// Writes the full snapshot as one JSON object: counters, gauges,
/// histograms (count, sum and buckets) and HDR quantile summaries (with the
/// layout's rel_error). Run reports (obs/report.hpp) embed the same object as
/// their "metrics" member.
void WriteSnapshotJson(std::ostream& out, const MetricsSnapshot& snapshot);
std::string RenderSnapshotJson(const MetricsSnapshot& snapshot);

/// Snapshot of the global registry rendered as Prometheus text, written
/// atomically to `path`.
Status WritePrometheusFile(const std::string& path);

/// Background thread that writes a JSON snapshot of the global registry to
/// `path` (atomically) every `period_seconds`. Stop() writes one final
/// snapshot so the file always reflects the end state.
class PeriodicSnapshotWriter {
  public:
    PeriodicSnapshotWriter(std::string path, double period_seconds);
    ~PeriodicSnapshotWriter();

    PeriodicSnapshotWriter(const PeriodicSnapshotWriter&) = delete;
    PeriodicSnapshotWriter& operator=(const PeriodicSnapshotWriter&) = delete;

    /// One immediate write (also usable standalone, e.g. in tests).
    Status WriteNow() const;

    void Stop();

  private:
    std::string path_;
    double period_seconds_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

struct MetricsHttpConfig {
    /// 0 = kernel-assigned ephemeral port (read back with port()).
    std::uint16_t port = 0;
    /// Readiness probe for `GET /healthz`: true -> 200 "ok", false -> 503
    /// "unavailable". Null means always ready (bare liveness). The serving
    /// stack wires this to "model installed and not draining".
    std::function<bool()> ready_check;
};

/// Minimal HTTP/1.x responder for metric scrapes. GET /metrics returns the
/// same RenderPrometheus payload as the prediction protocol's "metrics" op;
/// GET /metrics.json returns RenderSnapshotJson; GET /healthz answers the
/// readiness probe. Anything else is 404/405.
class MetricsHttpServer {
  public:
    explicit MetricsHttpServer(MetricsHttpConfig config = {});
    ~MetricsHttpServer();

    MetricsHttpServer(const MetricsHttpServer&) = delete;
    MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

    Status Start();
    void Stop();

    /// Bound port (valid after Start).
    std::uint16_t port() const { return port_; }

  private:
    void ServeLoop();
    void HandleConnection(Socket socket);

    MetricsHttpConfig config_;
    Socket listener_;
    std::uint16_t port_ = 0;
    std::thread thread_;
    std::atomic<bool> stopping_{false};
};

}  // namespace dfp::obs
