// bench_diff: compares a fresh BENCH_*.json against a committed baseline of
// per-metric tolerance bounds, exiting non-zero on any violation — the
// opt-in perf-regression gate (ctest label dfp_bench, -DDFP_BENCH_TESTS=ON).
//
//   bench_diff --bench BENCH_serving.json --baseline bench/baselines/serving.json
//
// Baseline schema (one entry per gauge to check; unlisted gauges are ignored):
//   { "metrics": {
//       "dfp.bench.serving.soak.preds_per_s": { "min": 5000 },
//       "dfp.bench.serving.soak.shed_rate":   { "max": 0.05 },
//       "dfp.bench.serving.index_speedup":    { "min": 3, "max": 1e9 } } }
//
// Bounds are absolute values, not ratios, so the file doubles as readable
// documentation of what the serving stack is expected to sustain. Keep them
// loose — this gate is for catching collapses (half the throughput, runaway
// shed rate), not 2% noise.
//
// Host shape: a gauge whose name has a `.t<k>.` segment was measured at k
// threads. When k exceeds the report's own dfp.bench.hw_threads and the
// gauge is derived from time (its name ends in `.efficiency`, `.speedup` or
// `.seconds`), its bound is reported as skipped, not judged — k threads on
// fewer hardware threads measure time-slicing, not scaling. Counts such as
// `.t8.patterns` read the same on any host and are always judged. A report
// without dfp.bench.hw_threads is judged in full.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

dfp::Result<dfp::obs::JsonValue> LoadJsonFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) return dfp::Status::NotFound("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return dfp::obs::ParseJson(buf.str());
}

// The k of the first `.t<k>.` segment of a gauge name, or 0 when it has none.
double ThreadsNamed(const std::string& name) {
    for (std::size_t pos = name.find(".t"); pos != std::string::npos;
         pos = name.find(".t", pos + 2)) {
        std::size_t end = pos + 2;
        double k = 0.0;
        while (end < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[end])) != 0) {
            k = 10.0 * k + (name[end] - '0');
            ++end;
        }
        if (end > pos + 2 && end < name.size() && name[end] == '.') return k;
    }
    return 0.0;
}

// Whether a gauge measures time: only those depend on the host's shape.
bool TimeDerived(const std::string& name) {
    const std::string last = name.substr(name.rfind('.') + 1);
    return last == "efficiency" || last == "speedup" || last == "seconds";
}

}  // namespace

int main(int argc, char** argv) {
    std::string bench_path;
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--bench") == 0 && i + 1 < argc) {
            bench_path = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            baseline_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s --bench BENCH_x.json --baseline "
                         "bench/baselines/x.json\n",
                         argv[0]);
            return 2;
        }
    }
    if (bench_path.empty() || baseline_path.empty()) {
        std::fprintf(stderr, "error: --bench and --baseline are required\n");
        return 2;
    }

    auto bench = LoadJsonFile(bench_path);
    if (!bench.ok()) {
        std::fprintf(stderr, "error reading %s: %s\n", bench_path.c_str(),
                     bench.status().ToString().c_str());
        return 2;
    }
    auto baseline = LoadJsonFile(baseline_path);
    if (!baseline.ok()) {
        std::fprintf(stderr, "error reading %s: %s\n", baseline_path.c_str(),
                     baseline.status().ToString().c_str());
        return 2;
    }

    // Gauges live at .metrics.gauges in a RunReport document.
    const dfp::obs::JsonValue* metrics = bench->Find("metrics");
    const dfp::obs::JsonValue* gauges =
        metrics != nullptr ? metrics->Find("gauges") : nullptr;
    if (gauges == nullptr || !gauges->is_object()) {
        std::fprintf(stderr, "error: %s has no .metrics.gauges object\n",
                     bench_path.c_str());
        return 2;
    }
    const dfp::obs::JsonValue* checks = baseline->Find("metrics");
    if (checks == nullptr || !checks->is_object()) {
        std::fprintf(stderr, "error: %s has no .metrics object\n",
                     baseline_path.c_str());
        return 2;
    }

    const dfp::obs::JsonValue* hw = gauges->Find("dfp.bench.hw_threads");
    const double hw_threads =
        hw != nullptr && hw->is_number() && hw->number() > 0.0 ? hw->number()
                                                                : 0.0;

    int violations = 0;
    int checked = 0;
    int skipped = 0;
    for (const auto& [name, bounds] : checks->object()) {
        const double threads = ThreadsNamed(name);
        if (hw_threads > 0.0 && threads > hw_threads && TimeDerived(name)) {
            std::printf("skip  %-45s t%g > hw_threads %g\n", name.c_str(),
                        threads, hw_threads);
            ++skipped;
            continue;
        }
        const dfp::obs::JsonValue* actual = gauges->Find(name);
        if (actual == nullptr || !actual->is_number()) {
            std::printf("FAIL  %-45s missing from %s\n", name.c_str(),
                        bench_path.c_str());
            ++violations;
            continue;
        }
        const double v = actual->number();
        const dfp::obs::JsonValue* lo = bounds.Find("min");
        const dfp::obs::JsonValue* hi = bounds.Find("max");
        bool ok = true;
        std::string why;
        if (lo != nullptr && lo->is_number() && v < lo->number()) {
            ok = false;
            why = "< min " + std::to_string(lo->number());
        }
        if (hi != nullptr && hi->is_number() && v > hi->number()) {
            ok = false;
            why = "> max " + std::to_string(hi->number());
        }
        ++checked;
        if (ok) {
            std::printf("ok    %-45s %g\n", name.c_str(), v);
        } else {
            std::printf("FAIL  %-45s %g %s\n", name.c_str(), v, why.c_str());
            ++violations;
        }
    }
    if (checked == 0 && violations == 0 && skipped == 0) {
        std::fprintf(stderr, "error: baseline lists no metrics\n");
        return 2;
    }
    std::printf("%d checked, %d skipped, %d violations\n", checked, skipped,
                violations);
    return violations == 0 ? 0 : 1;
}
