#include "obs/export.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <iterator>
#include <sstream>

#include "common/logging.hpp"
#include "obs/json.hpp"

namespace dfp::obs {

namespace {

/// Receive timeout per scrape connection; a stalled scraper is dropped.
constexpr double kScrapeRecvTimeoutSeconds = 2.0;

void WriteNumber(std::ostream& out, double v) { WriteJsonNumber(out, v); }

const double kSummaryQuantiles[] = {0.5, 0.9, 0.95, 0.99, 0.999};
const char* const kSummaryQuantileLabels[] = {"0.5", "0.9", "0.95", "0.99",
                                              "0.999"};

void RenderHdrSummary(std::ostringstream& out, const std::string& name,
                      const HdrSnapshot& snap) {
    const std::string prom = PrometheusName(name);
    out << "# HELP " << prom << ' '
        << PrometheusHelpEscape("trailing-window summary of " + name) << '\n';
    out << "# TYPE " << prom << " summary\n";
    for (std::size_t q = 0; q < std::size(kSummaryQuantiles); ++q) {
        out << prom << "{quantile=\"" << kSummaryQuantileLabels[q] << "\"} ";
        WriteNumber(out, snap.ValueAtQuantile(kSummaryQuantiles[q]));
        out << '\n';
    }
    out << prom << "_sum ";
    WriteNumber(out, snap.sum);
    out << '\n' << prom << "_count " << snap.count << '\n';
}

void WriteHdrJson(std::ostream& out, const HdrSnapshot& snap) {
    out << "{\"count\":" << snap.count << ",\"sum\":";
    WriteJsonNumber(out, snap.sum);
    out << ",\"mean\":";
    WriteJsonNumber(out, snap.mean());
    for (std::size_t q = 0; q < std::size(kSummaryQuantiles); ++q) {
        out << ",\"p" << kSummaryQuantileLabels[q] << "\":";
        WriteJsonNumber(out, snap.ValueAtQuantile(kSummaryQuantiles[q]));
    }
    out << ",\"rel_error\":";
    WriteJsonNumber(out, snap.layout.RelativeErrorBound());
    out << '}';
}

void WriteHistogramJson(std::ostream& out, const HistogramData& data) {
    out << "{\"count\":" << data.count << ",\"sum\":";
    WriteJsonNumber(out, data.sum);
    out << ",\"buckets\":[";
    for (std::size_t i = 0; i < data.bucket_counts.size(); ++i) {
        if (i > 0) out << ',';
        out << "{\"le\":";
        if (i < data.bounds.size()) {
            WriteJsonNumber(out, data.bounds[i]);
        } else {
            out << "null";  // the overflow bucket
        }
        out << ",\"count\":" << data.bucket_counts[i] << '}';
    }
    out << "]}";
}

}  // namespace

std::string PrometheusName(std::string_view name) {
    std::string out;
    out.reserve(name.size() + 1);
    if (name.empty() || (name.front() >= '0' && name.front() <= '9')) {
        out.push_back('_');
    }
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string PrometheusHelpEscape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '\\') {
            out += "\\\\";
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
    std::ostringstream out;
    for (const auto& [name, value] : snapshot.counters) {
        const std::string prom = PrometheusName(name);
        out << "# HELP " << prom << ' ' << PrometheusHelpEscape(name) << '\n';
        out << "# TYPE " << prom << " counter\n";
        out << prom << ' ' << value << '\n';
    }
    for (const auto& [name, value] : snapshot.gauges) {
        const std::string prom = PrometheusName(name);
        out << "# HELP " << prom << ' ' << PrometheusHelpEscape(name) << '\n';
        out << "# TYPE " << prom << " gauge\n";
        out << prom << ' ';
        WriteNumber(out, value);
        out << '\n';
    }
    for (const auto& [name, data] : snapshot.histograms) {
        const std::string prom = PrometheusName(name);
        out << "# HELP " << prom << ' ' << PrometheusHelpEscape(name) << '\n';
        out << "# TYPE " << prom << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < data.bucket_counts.size(); ++i) {
            cumulative += data.bucket_counts[i];
            out << prom << "_bucket{le=\"";
            if (i < data.bounds.size()) {
                WriteNumber(out, data.bounds[i]);
            } else {
                out << "+Inf";
            }
            out << "\"} " << cumulative << '\n';
        }
        out << prom << "_sum ";
        WriteNumber(out, data.sum);
        out << '\n' << prom << "_count " << data.count << '\n';
    }
    for (const auto& [name, snap] : snapshot.windows) {
        RenderHdrSummary(out, name, snap);
    }
    return out.str();
}

void WriteSnapshotJson(std::ostream& out, const MetricsSnapshot& snapshot) {
    out << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snapshot.counters) {
        if (!first) out << ',';
        first = false;
        WriteJsonString(out, name);
        out << ':' << value;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snapshot.gauges) {
        if (!first) out << ',';
        first = false;
        WriteJsonString(out, name);
        out << ':';
        WriteJsonNumber(out, value);
    }
    out << "},\"histograms\":{";
    first = true;
    for (const auto& [name, data] : snapshot.histograms) {
        if (!first) out << ',';
        first = false;
        WriteJsonString(out, name);
        out << ':';
        WriteHistogramJson(out, data);
    }
    out << "},\"windows\":{";
    first = true;
    for (const auto& [name, snap] : snapshot.windows) {
        if (!first) out << ',';
        first = false;
        WriteJsonString(out, name);
        out << ':';
        WriteHdrJson(out, snap);
    }
    out << "}}";
}

std::string RenderSnapshotJson(const MetricsSnapshot& snapshot) {
    std::ostringstream out;
    WriteSnapshotJson(out, snapshot);
    return out.str();
}

Status WritePrometheusFile(const std::string& path) {
    return WriteFileAtomic(path, RenderPrometheus(Registry::Get().Snapshot()));
}

PeriodicSnapshotWriter::PeriodicSnapshotWriter(std::string path,
                                               double period_seconds)
    : path_(std::move(path)),
      period_seconds_(std::max(0.05, period_seconds)) {
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(mu_);
        const auto period = std::chrono::duration<double>(period_seconds_);
        while (!stop_) {
            cv_.wait_for(lock, period, [this] { return stop_; });
            if (stop_) return;
            lock.unlock();
            const Status st = WriteNow();
            if (!st.ok()) DFP_LOG_WARN("snapshot write: " + st.ToString());
            lock.lock();
        }
    });
}

PeriodicSnapshotWriter::~PeriodicSnapshotWriter() { Stop(); }

Status PeriodicSnapshotWriter::WriteNow() const {
    return WriteFileAtomic(
        path_, RenderSnapshotJson(Registry::Get().Snapshot()) + "\n");
}

void PeriodicSnapshotWriter::Stop() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    const Status st = WriteNow();  // final state always lands on disk
    if (!st.ok()) DFP_LOG_WARN("final snapshot write: " + st.ToString());
}

MetricsHttpServer::MetricsHttpServer(MetricsHttpConfig config)
    : config_(config) {}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

Status MetricsHttpServer::Start() {
    auto listener = TcpListen(config_.port);
    if (!listener.ok()) return listener.status();
    listener_ = std::move(*listener);
    auto port = LocalPort(listener_);
    if (!port.ok()) return port.status();
    port_ = *port;
    thread_ = std::thread([this] { ServeLoop(); });
    return Status::Ok();
}

void MetricsHttpServer::Stop() {
    if (stopping_.exchange(true)) {
        if (thread_.joinable()) thread_.join();
        return;
    }
    listener_.ShutdownBoth();
    if (thread_.joinable()) thread_.join();
    listener_.Close();
}

void MetricsHttpServer::ServeLoop() {
    for (;;) {
        auto accepted = TcpAccept(listener_);
        if (!accepted.ok()) return;  // listener shut down
        if (stopping_.load(std::memory_order_relaxed)) return;
        HandleConnection(std::move(*accepted));
    }
}

void MetricsHttpServer::HandleConnection(Socket socket) {
    (void)socket.SetRecvTimeout(kScrapeRecvTimeoutSeconds);
    LineReader reader(socket);
    std::string request_line;
    auto got = reader.ReadLine(&request_line, 8192);
    if (!got.ok() || !*got) return;
    // Drain headers until the blank line; a broken/stalled client just drops.
    std::string header;
    for (;;) {
        auto line = reader.ReadLine(&header, 8192);
        if (!line.ok() || !*line) return;
        if (header.empty()) break;
    }
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : request_line.find(' ', sp1 + 1);
    const std::string method =
        sp1 == std::string::npos ? request_line : request_line.substr(0, sp1);
    const std::string path =
        sp2 == std::string::npos
            ? std::string()
            : request_line.substr(sp1 + 1, sp2 - sp1 - 1);

    std::string status_line;
    std::string content_type;
    std::string body;
    if (method != "GET") {
        status_line = "HTTP/1.1 405 Method Not Allowed";
        content_type = "text/plain";
        body = "method not allowed\n";
    } else if (path == "/metrics") {
        status_line = "HTTP/1.1 200 OK";
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        body = RenderPrometheus(Registry::Get().Snapshot());
    } else if (path == "/metrics.json") {
        status_line = "HTTP/1.1 200 OK";
        content_type = "application/json";
        body = RenderSnapshotJson(Registry::Get().Snapshot()) + "\n";
    } else if (path == "/healthz") {
        const bool ready =
            config_.ready_check == nullptr || config_.ready_check();
        status_line = ready ? "HTTP/1.1 200 OK"
                            : "HTTP/1.1 503 Service Unavailable";
        content_type = "text/plain";
        body = ready ? "ok\n" : "unavailable\n";
    } else {
        status_line = "HTTP/1.1 404 Not Found";
        content_type = "text/plain";
        body = "not found (try /metrics, /metrics.json or /healthz)\n";
    }
    std::ostringstream response;
    response << status_line << "\r\nContent-Type: " << content_type
             << "\r\nContent-Length: " << body.size()
             << "\r\nConnection: close\r\n\r\n"
             << body;
    (void)socket.SendAll(response.str());
    socket.ShutdownBoth();
}

}  // namespace dfp::obs
