#include "obs/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/fileio.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"

namespace dfp::obs {

RunReport CollectRunReport(std::string name) {
    RunReport report;
    report.name = std::move(name);
    report.metrics = Registry::Get().Snapshot();
    report.guard = GuardLog::Get().Drain();
    report.spans = Tracer::Get().TakeRoots();
    return report;
}

void WriteSpanJson(std::ostream& out, const SpanNode& node) {
    out << "{\"name\":";
    WriteJsonString(out, node.name);
    out << ",\"seconds\":";
    WriteJsonNumber(out, node.seconds);
    out << ",\"annotations\":{";
    for (std::size_t i = 0; i < node.annotations.size(); ++i) {
        if (i > 0) out << ',';
        WriteJsonString(out, node.annotations[i].first);
        out << ':';
        WriteJsonNumber(out, node.annotations[i].second);
    }
    out << "},\"children\":[";
    for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out << ',';
        WriteSpanJson(out, *node.children[i]);
    }
    out << "]}";
}

void WriteReportJson(std::ostream& out, const RunReport& report) {
    out << "{\"name\":";
    WriteJsonString(out, report.name);
    out << ",\"metrics\":";
    WriteSnapshotJson(out, report.metrics);
    out << ",\"guard\":[";
    for (std::size_t i = 0; i < report.guard.size(); ++i) {
        if (i > 0) out << ',';
        const GuardEvent& event = report.guard[i];
        out << "{\"stage\":";
        WriteJsonString(out, event.stage);
        out << ",\"kind\":";
        WriteJsonString(out, event.kind);
        out << ",\"value\":";
        WriteJsonNumber(out, event.value);
        out << '}';
    }
    out << "],\"spans\":[";
    for (std::size_t i = 0; i < report.spans.size(); ++i) {
        if (i > 0) out << ',';
        WriteSpanJson(out, *report.spans[i]);
    }
    out << "]}";
}

std::string ReportToJsonString(const RunReport& report) {
    std::ostringstream out;
    WriteReportJson(out, report);
    return out.str();
}

Status WriteReportJsonFile(const RunReport& report, const std::string& path) {
    return WriteFileAtomic(path, ReportToJsonString(report) + "\n");
}

namespace {

void WriteSpanTable(std::ostream& out, const SpanNode& node, int depth) {
    out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << node.name
        << "  " << std::fixed << std::setprecision(4) << node.seconds << "s";
    for (const auto& [key, value] : node.annotations) {
        out << "  " << key << "=" << std::defaultfloat << value
            << std::fixed;
    }
    out << '\n';
    for (const auto& child : node.children) {
        WriteSpanTable(out, *child, depth + 1);
    }
}

}  // namespace

void WriteReportTable(std::ostream& out, const RunReport& report) {
    out << "run report: " << report.name << '\n';
    if (!report.guard.empty()) {
        out << "-- guard --\n";
        for (const GuardEvent& event : report.guard) {
            out << "  " << event.stage << "  " << event.kind << "  "
                << std::defaultfloat << event.value << '\n';
        }
    }
    if (!report.spans.empty()) {
        out << "-- spans --\n";
        for (const auto& root : report.spans) WriteSpanTable(out, *root, 1);
    }
    std::size_t width = 0;
    for (const auto& [name, value] : report.metrics.counters) {
        width = std::max(width, name.size());
    }
    for (const auto& [name, value] : report.metrics.gauges) {
        width = std::max(width, name.size());
    }
    for (const auto& [name, data] : report.metrics.histograms) {
        width = std::max(width, name.size());
    }
    for (const auto& [name, snap] : report.metrics.windows) {
        width = std::max(width, name.size());
    }
    if (width > 0) out << "-- metrics --\n";
    for (const auto& [name, value] : report.metrics.counters) {
        out << "  " << std::left << std::setw(static_cast<int>(width)) << name
            << "  " << value << '\n';
    }
    for (const auto& [name, value] : report.metrics.gauges) {
        out << "  " << std::left << std::setw(static_cast<int>(width)) << name
            << "  " << std::defaultfloat << value << '\n';
    }
    for (const auto& [name, data] : report.metrics.histograms) {
        out << "  " << std::left << std::setw(static_cast<int>(width)) << name
            << "  count=" << data.count << " sum=" << std::defaultfloat
            << data.sum << '\n';
    }
    for (const auto& [name, snap] : report.metrics.windows) {
        out << "  " << std::left << std::setw(static_cast<int>(width)) << name
            << "  count=" << snap.count << " p50=" << std::defaultfloat
            << snap.ValueAtQuantile(0.5) << " p99=" << snap.ValueAtQuantile(0.99)
            << '\n';
    }
}

}  // namespace dfp::obs
