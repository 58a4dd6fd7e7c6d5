// obs/export: Prometheus text-exposition golden output (name sanitization,
// HELP escaping, cumulative le buckets, deterministic ordering), JSON
// snapshot rendering, atomic file writes, and the GET /metrics side-port.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/hdr.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace dfp::obs {
namespace {

TEST(PrometheusNameTest, SanitizesToLegalCharset) {
    EXPECT_EQ(PrometheusName("dfp.serve.latency_ms"), "dfp_serve_latency_ms");
    EXPECT_EQ(PrometheusName("a-b c/d"), "a_b_c_d");
    EXPECT_EQ(PrometheusName("name:with:colons"), "name:with:colons");
    EXPECT_EQ(PrometheusName("9lives"), "_9lives");
    EXPECT_EQ(PrometheusName(""), "_");
}

TEST(PrometheusHelpEscapeTest, EscapesBackslashAndNewline) {
    EXPECT_EQ(PrometheusHelpEscape("plain"), "plain");
    EXPECT_EQ(PrometheusHelpEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(PrometheusHelpEscape("line1\nline2"), "line1\\nline2");
}

MetricsSnapshot HandBuiltSnapshot() {
    MetricsSnapshot snap;
    snap.counters["dfp.test.requests"] = 12;
    snap.gauges["dfp.test.depth"] = 2.5;
    HistogramData hist;
    hist.bounds = {0.1, 1.0};
    hist.bucket_counts = {3, 2, 1};  // per-bucket; exposition must cumulate
    hist.count = 6;
    hist.sum = 4.2;
    snap.histograms["dfp.test.latency"] = hist;
    return snap;
}

// Golden: the full exposition for a hand-built snapshot, byte for byte.
// If this changes, scrapers see a different payload — change it knowingly.
TEST(RenderPrometheusTest, GoldenOutput) {
    const std::string expected =
        "# HELP dfp_test_requests dfp.test.requests\n"
        "# TYPE dfp_test_requests counter\n"
        "dfp_test_requests 12\n"
        "# HELP dfp_test_depth dfp.test.depth\n"
        "# TYPE dfp_test_depth gauge\n"
        "dfp_test_depth 2.5\n"
        "# HELP dfp_test_latency dfp.test.latency\n"
        "# TYPE dfp_test_latency histogram\n"
        "dfp_test_latency_bucket{le=\"0.1\"} 3\n"
        "dfp_test_latency_bucket{le=\"1\"} 5\n"
        "dfp_test_latency_bucket{le=\"+Inf\"} 6\n"
        "dfp_test_latency_sum 4.2\n"
        "dfp_test_latency_count 6\n";
    EXPECT_EQ(RenderPrometheus(HandBuiltSnapshot()), expected);
}

TEST(RenderPrometheusTest, BucketsAreCumulativeAndEndAtCount) {
    const std::string text = RenderPrometheus(HandBuiltSnapshot());
    // The +Inf bucket must equal _count (Prometheus invariant).
    EXPECT_NE(text.find("dfp_test_latency_bucket{le=\"+Inf\"} 6\n"),
              std::string::npos);
    EXPECT_NE(text.find("dfp_test_latency_count 6\n"), std::string::npos);
}

TEST(RenderPrometheusTest, HdrRendersAsQuantileSummary) {
    MetricsSnapshot snap;
    HdrHistogram hist{HdrConfig{}};
    for (int i = 1; i <= 100; ++i) hist.Record(0.1 * i);
    snap.windows["dfp.test.hdr"] = hist.Snapshot();
    const std::string text = RenderPrometheus(snap);
    EXPECT_NE(text.find("# HELP dfp_test_hdr trailing-window summary of "
                        "dfp.test.hdr\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE dfp_test_hdr summary\n"), std::string::npos);
    EXPECT_NE(text.find("dfp_test_hdr{quantile=\"0.5\"} "), std::string::npos);
    EXPECT_NE(text.find("dfp_test_hdr{quantile=\"0.999\"} "), std::string::npos);
    EXPECT_NE(text.find("dfp_test_hdr_count 100\n"), std::string::npos);
}

TEST(RenderPrometheusTest, DeterministicAcrossCalls) {
    const MetricsSnapshot snap = HandBuiltSnapshot();
    EXPECT_EQ(RenderPrometheus(snap), RenderPrometheus(snap));
}

TEST(RenderSnapshotJsonTest, ParsesBackAndCarriesQuantiles) {
    MetricsSnapshot snap = HandBuiltSnapshot();
    HdrHistogram hist{HdrConfig{}};
    hist.Record(1.0);
    hist.Record(2.0);
    snap.windows["dfp.test.win"] = hist.Snapshot();
    auto parsed = ParseJson(RenderSnapshotJson(snap));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const JsonValue* counters = parsed->Find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->Find("dfp.test.requests"), nullptr);
    EXPECT_EQ(counters->Find("dfp.test.requests")->number(), 12.0);
    const JsonValue* windows = parsed->Find("windows");
    ASSERT_NE(windows, nullptr);
    const JsonValue* win = windows->Find("dfp.test.win");
    ASSERT_NE(win, nullptr);
    EXPECT_EQ(win->Find("count")->number(), 2.0);
    ASSERT_NE(win->Find("p0.999"), nullptr);
    ASSERT_NE(win->Find("rel_error"), nullptr);
}

TEST(RenderSnapshotJsonTest, HistogramsCarryBucketsAndHdrsCarryRelError) {
    MetricsSnapshot snap = HandBuiltSnapshot();
    HdrHistogram hist{HdrConfig{}};
    for (int i = 1; i <= 10; ++i) hist.Record(0.5 * i);
    snap.windows["dfp.test.hdr"] = hist.Snapshot();
    auto parsed = ParseJson(RenderSnapshotJson(snap));
    ASSERT_TRUE(parsed.ok()) << parsed.status();

    const JsonValue* latency = parsed->Find("histograms")->Find("dfp.test.latency");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->Find("count")->number(), 6.0);
    EXPECT_DOUBLE_EQ(latency->Find("sum")->number(), 4.2);
    // Per-bucket (not cumulative) counts; the overflow bucket's bound is null.
    const JsonValue* buckets = latency->Find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->array().size(), 3u);
    EXPECT_DOUBLE_EQ(buckets->array()[0].Find("le")->number(), 0.1);
    EXPECT_EQ(buckets->array()[0].Find("count")->number(), 3.0);
    EXPECT_DOUBLE_EQ(buckets->array()[1].Find("le")->number(), 1.0);
    EXPECT_EQ(buckets->array()[1].Find("count")->number(), 2.0);
    EXPECT_TRUE(buckets->array()[2].Find("le")->is_null());
    EXPECT_EQ(buckets->array()[2].Find("count")->number(), 1.0);

    // HDR snapshots live only under "windows"; there is no "hdr" member.
    EXPECT_EQ(parsed->Find("hdr"), nullptr);
    const JsonValue* hdr = parsed->Find("windows")->Find("dfp.test.hdr");
    ASSERT_NE(hdr, nullptr);
    EXPECT_EQ(hdr->Find("count")->number(), 10.0);
    ASSERT_NE(hdr->Find("rel_error"), nullptr);
    EXPECT_GT(hdr->Find("rel_error")->number(), 0.0);
    EXPECT_LT(hdr->Find("rel_error")->number(), 0.1);
}

TEST(WriteFileAtomicTest, WritesContentAndLeavesNoTmp) {
    const std::string path = ::testing::TempDir() + "dfp_export_atomic.txt";
    ASSERT_TRUE(WriteFileAtomic(path, "hello\n").ok());
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "hello\n");
    // The tmp staging file must be gone.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    // Overwrite is atomic-replace, not append.
    ASSERT_TRUE(WriteFileAtomic(path, "v2\n").ok());
    std::ifstream in2(path);
    std::stringstream buf2;
    buf2 << in2.rdbuf();
    EXPECT_EQ(buf2.str(), "v2\n");
    std::remove(path.c_str());
}

std::string HttpGet(std::uint16_t port, const std::string& path) {
    auto socket = TcpConnect("127.0.0.1", port);
    EXPECT_TRUE(socket.ok()) << socket.status();
    if (!socket.ok()) return "";
    EXPECT_TRUE(socket
                    ->SendAll("GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n\r\n")
                    .ok());
    std::string response;
    char chunk[4096];
    for (;;) {
        auto n = socket->Recv(chunk, sizeof(chunk));
        if (!n.ok() || *n == 0) break;
        response.append(chunk, *n);
    }
    return response;
}

TEST(MetricsHttpServerTest, ServesPrometheusAndJson) {
    Registry::Get().ResetValues();
    Registry::Get().GetCounter("dfp.test.http_requests").Inc(7);

    MetricsHttpConfig config;
    config.port = 0;
    MetricsHttpServer server(config);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_NE(server.port(), 0);

    const std::string response = HttpGet(server.port(), "/metrics");
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(response.find("dfp_test_http_requests 7\n"), std::string::npos);
    // The body is exactly RenderPrometheus of a registry snapshot modulo
    // whatever changed between the two snapshots; the metric line presence
    // above is the stable part.

    const std::string json_response = HttpGet(server.port(), "/metrics.json");
    EXPECT_NE(json_response.find("application/json"), std::string::npos);
    const std::size_t body_at = json_response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    auto parsed = ParseJson(
        std::string_view(json_response).substr(body_at + 4));
    ASSERT_TRUE(parsed.ok()) << parsed.status();

    EXPECT_NE(HttpGet(server.port(), "/nope").find("404"), std::string::npos);

    server.Stop();
}

TEST(MetricsHttpServerTest, RejectsNonGet) {
    MetricsHttpServer server(MetricsHttpConfig{});
    ASSERT_TRUE(server.Start().ok());
    auto socket = TcpConnect("127.0.0.1", server.port());
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(socket->SendAll("POST /metrics HTTP/1.1\r\n\r\n").ok());
    std::string response;
    char chunk[1024];
    for (;;) {
        auto n = socket->Recv(chunk, sizeof(chunk));
        if (!n.ok() || *n == 0) break;
        response.append(chunk, *n);
    }
    EXPECT_NE(response.find("405"), std::string::npos);
    server.Stop();
}

TEST(MetricsHttpServerTest, StalledScraperIsDroppedAndScrapingResumes) {
    MetricsHttpServer server(MetricsHttpConfig{});
    ASSERT_TRUE(server.Start().ok());
    // A scraper that connects and sends nothing holds the one serving
    // thread until the server's receive timeout drops it.
    auto stalled = TcpConnect("127.0.0.1", server.port());
    ASSERT_TRUE(stalled.ok()) << stalled.status();
    ASSERT_TRUE(stalled->SetRecvTimeout(30.0).ok());
    char byte = 0;
    const auto closed = stalled->Recv(&byte, 1);
    ASSERT_TRUE(closed.ok()) << "the server never dropped the stalled scraper";
    EXPECT_EQ(*closed, 0u);
    EXPECT_NE(HttpGet(server.port(), "/metrics").find("HTTP/1.1 200 OK"),
              std::string::npos);
    server.Stop();
}

TEST(PeriodicSnapshotWriterTest, StopWritesFinalSnapshot) {
    Registry::Get().ResetValues();
    Registry::Get().GetGauge("dfp.test.final").Set(3.0);
    const std::string path = ::testing::TempDir() + "dfp_export_periodic.json";
    std::remove(path.c_str());
    {
        PeriodicSnapshotWriter writer(path, /*period_seconds=*/60.0);
        writer.Stop();  // no period elapsed; Stop must still flush once
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    auto parsed = ParseJson(buf.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const JsonValue* gauges = parsed->Find("gauges");
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(gauges->Find("dfp.test.final"), nullptr);
    EXPECT_EQ(gauges->Find("dfp.test.final")->number(), 3.0);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace dfp::obs
