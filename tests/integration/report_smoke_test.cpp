// Runs a tiny mining→selection→learning pipeline with tracing enabled and
// validates the emitted JSON run report against the schema in obs/report.hpp —
// the same artifact quickstart --report and the BENCH_* harnesses produce.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/svm/svm.hpp"
#include "obs/export.hpp"
#include "obs/hdr.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace dfp {
namespace {

// Names every phase in a span tree (depth-first).
void CollectPhaseNames(const obs::JsonValue& span, std::set<std::string>* out) {
    const obs::JsonValue* name = span.Find("name");
    ASSERT_NE(name, nullptr);
    out->insert(name->string());
    const obs::JsonValue* children = span.Find("children");
    ASSERT_NE(children, nullptr);
    for (const auto& child : children->array()) {
        CollectPhaseNames(child, out);
    }
}

TEST(ReportSmokeTest, PipelineRunEmitsValidJsonReport) {
    obs::Registry::Get().ResetValues();
    obs::Tracer::Get().Clear();
    obs::EnableTracing(true);

    // Tiny but non-degenerate: enough rows that mining, MMRFS and SMO all do
    // real work and flush their metrics.
    SyntheticSpec spec;
    spec.name = "report_smoke";
    spec.rows = 200;
    spec.attributes = 8;
    spec.classes = 2;
    spec.seed = 11;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    const auto db = TransactionDatabase::FromDataset(data, *encoder);

    PipelineConfig config;
    config.miner.min_sup_rel = 0.15;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    PatternClassifierPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<SvmClassifier>()).ok());

    const obs::RunReport report = obs::CollectRunReport("report_smoke");
    obs::EnableTracing(false);

    // Write the file exactly as the CLI surfaces do, then read it back.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() / "dfp_report_smoke.json";
    ASSERT_TRUE(obs::WriteReportJsonFile(report, path.string()).ok());
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::filesystem::remove(path);

    const auto parsed = obs::ParseJson(buffer.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const obs::JsonValue& doc = *parsed;
    ASSERT_TRUE(doc.is_object());

    // -- top level --
    ASSERT_NE(doc.Find("name"), nullptr);
    EXPECT_EQ(doc.Find("name")->string(), "report_smoke");

    // -- span tree: the full nested pipeline phase structure --
    const obs::JsonValue* spans = doc.Find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_TRUE(spans->is_array());
    ASSERT_EQ(spans->array().size(), 1u);  // one Train call → one root
    const obs::JsonValue& root = spans->array()[0];
    EXPECT_EQ(root.Find("name")->string(), "train");
    std::set<std::string> phases;
    CollectPhaseNames(root, &phases);
    for (const char* phase :
         {"train", "mine", "mine.class_0", "mine.class_1", "pool_dedup",
          "mmrfs", "transform", "learn"}) {
        EXPECT_TRUE(phases.contains(phase)) << "missing phase: " << phase;
    }
    EXPECT_GE(phases.size(), 4u);

    // -- metrics: ≥10 distinct names spanning fpm, core and ml --
    const obs::JsonValue* metrics = doc.Find("metrics");
    ASSERT_NE(metrics, nullptr);
    const obs::JsonValue* counters = metrics->Find("counters");
    const obs::JsonValue* gauges = metrics->Find("gauges");
    const obs::JsonValue* histograms = metrics->Find("histograms");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(histograms, nullptr);

    std::set<std::string> names;
    std::set<std::string> modules;
    auto collect = [&](const obs::JsonValue& object) {
        for (const auto& [name, value] : object.object()) {
            names.insert(name);
            // "dfp.<module>.<...>" → <module>
            const std::size_t start = name.find('.');
            const std::size_t end = name.find('.', start + 1);
            if (start != std::string::npos && end != std::string::npos) {
                modules.insert(name.substr(start + 1, end - start - 1));
            }
        }
    };
    collect(*counters);
    collect(*gauges);
    collect(*histograms);
    EXPECT_GE(names.size(), 10u) << "too few distinct metrics";
    for (const char* module : {"fpm", "core", "ml"}) {
        EXPECT_TRUE(modules.contains(module))
            << "no metrics from module: " << module;
    }

    // -- specific cross-layer signals the pipeline must have produced --
    EXPECT_GT(counters->Find("dfp.fpm.closed.nodes_expanded")->number(), 0.0);
    EXPECT_GT(counters->Find("dfp.core.mmrfs.iterations")->number(), 0.0);
    EXPECT_GT(counters->Find("dfp.ml.smo.take_steps")->number(), 0.0);
    EXPECT_GT(gauges->Find("dfp.core.pipeline.num_candidates")->number(), 0.0);
    // PipelineStats façade and the registry tell the same story.
    EXPECT_DOUBLE_EQ(gauges->Find("dfp.core.pipeline.num_selected")->number(),
                     static_cast<double>(pipeline.stats().num_selected));
    // The MMRFS gain histogram has the declared bucket layout.
    const obs::JsonValue* gain = histograms->Find("dfp.core.mmrfs.gain");
    ASSERT_NE(gain, nullptr);
    ASSERT_NE(gain->Find("buckets"), nullptr);
    EXPECT_EQ(gain->Find("buckets")->array().size(), 9u);  // 8 bounds + overflow
    EXPECT_GT(gain->Find("count")->number(), 0.0);
}

TEST(ReportSmokeTest, TableRenderingDoesNotThrow) {
    obs::Registry::Get().GetCounter("dfp.test.table.counter").Inc(3);
    const obs::RunReport report = obs::CollectRunReport("table_smoke");
    std::ostringstream out;
    obs::WriteReportTable(out, report);
    EXPECT_NE(out.str().find("dfp.test.table.counter"), std::string::npos);
}

obs::RunReport HandBuiltReport() {
    obs::RunReport report;
    report.name = "hand_built";
    report.metrics.counters["dfp.test.requests"] = 12;
    report.metrics.gauges["dfp.test.depth"] = 2.5;
    obs::HistogramData hist;
    hist.bounds = {0.1, 1.0};
    hist.bucket_counts = {3, 2, 1};
    hist.count = 6;
    hist.sum = 4.2;
    report.metrics.histograms["dfp.test.latency"] = hist;
    obs::HdrHistogram hdr{obs::HdrConfig{}};
    hdr.Record(1.0);
    hdr.Record(2.0);
    report.metrics.windows["dfp.test.hdr"] = hdr.Snapshot();
    return report;
}

TEST(ReportSmokeTest, MetricsMemberIsTheSnapshotDocument) {
    // The report embeds the one snapshot writer's output verbatim.
    const obs::RunReport report = HandBuiltReport();
    const std::string json = obs::ReportToJsonString(report);
    EXPECT_NE(json.find("\"metrics\":" + obs::RenderSnapshotJson(report.metrics) +
                        ",\"guard\":"),
              std::string::npos)
        << json;
}

TEST(ReportSmokeTest, HostMemberCarriesTheCpuModel) {
    obs::RunReport report = HandBuiltReport();
    const auto bare = obs::ParseJson(obs::ReportToJsonString(report));
    ASSERT_TRUE(bare.ok()) << bare.status();
    ASSERT_NE(bare->Find("host"), nullptr);
    EXPECT_TRUE(bare->Find("host")->is_object());
    EXPECT_TRUE(bare->Find("host")->object().empty());

    // What WriteBenchReport records beside the dfp.bench.* host gauges.
    const std::string model = obs::HostCpuModel();
    EXPECT_FALSE(model.empty());
    EXPECT_EQ(model, obs::HostCpuModel());
    EXPECT_NE(model.front(), ' ');
    EXPECT_NE(model.back(), ' ');
    report.cpu_model = model;
    const auto parsed = obs::ParseJson(obs::ReportToJsonString(report));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const obs::JsonValue* host = parsed->Find("host");
    ASSERT_NE(host, nullptr);
    ASSERT_TRUE(host->is_object());
    ASSERT_NE(host->Find("cpu_model"), nullptr);
    EXPECT_EQ(host->Find("cpu_model")->string(), model);
}

TEST(ReportSmokeTest, TableRendersWindowQuantiles) {
    std::ostringstream out;
    obs::WriteReportTable(out, HandBuiltReport());
    EXPECT_NE(out.str().find("dfp.test.hdr"), std::string::npos) << out.str();
    EXPECT_NE(out.str().find("count=2 p50="), std::string::npos) << out.str();
}

TEST(ReportSmokeTest, WriteReportJsonFileReplacesAndReportsFailure) {
    const obs::RunReport report = HandBuiltReport();
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() / "dfp_report_replace.json";
    {
        std::ofstream stale(path);
        stale << "stale and longer than nothing\n";
    }
    ASSERT_TRUE(obs::WriteReportJsonFile(report, path.string()).ok());
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), obs::ReportToJsonString(report) + "\n");
    EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
    std::filesystem::remove(path);

    // A missing directory is an error, and nothing is created.
    const std::filesystem::path missing =
        std::filesystem::temp_directory_path() / "dfp_no_such_dir" / "r.json";
    EXPECT_FALSE(obs::WriteReportJsonFile(report, missing.string()).ok());
    EXPECT_FALSE(std::filesystem::exists(missing));
}

}  // namespace
}  // namespace dfp
