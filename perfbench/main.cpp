// dfp_perfbench: runs one benchmark workload in this process and prints
//
//   {"provenance": {...}}                      host shape, build, seed, op counts
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// as its last two lines of standard output. A failed correctness check
// exits 1 after printing the result.
//
//   dfp_perfbench --workload train-dense|train-wide|serve-steady|serve-retrain
//                 --seed N --seconds S --trace 0|1 --workdir DIR
//                 [--tiny] [--expect-digest HEX --expect-accuracy A] [--record]
//
// For serve-*, a first `--prepare` run (same --workdir and --tiny) trains the
// served model and saves it into DIR; it prints nothing on standard output.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

#ifndef DFP_PERFBENCH_BUILD_TYPE
#define DFP_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Threads {
    unsigned pipeline = 1;    ///< PipelineConfig::num_threads default
    unsigned engine = 1;      ///< EngineConfig::num_threads default
    unsigned generators = 0;  ///< load-generator threads
    unsigned connections = 0;
    unsigned writers = 0;     ///< streaming ingest + retrain thread
    /// Threads that can be runnable at once: a closed-loop connection keeps
    /// either its generator or its server handler busy, never both.
    unsigned runnable() const {
        return connections > 0 ? connections + engine + writers : pipeline;
    }
};

Threads WorkloadThreads(const std::string& workload) {
    Threads t;
    if (workload == "serve-steady" || workload == "serve-retrain") {
        t.generators = 2;
        t.connections = 2;
    }
    if (workload == "serve-retrain") t.writers = 1;
    return t;
}

int Usage(const char* why) {
    std::fprintf(stderr,
                 "dfp_perfbench: %s\nusage: dfp_perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--tiny] [--prepare] "
                 "[--expect-digest HEX --expect-accuracy A] [--record]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) return "";
            return argv[++i];
        };
        try {
            if (arg == "--workload") options.workload = value();
            else if (arg == "--seed") options.seed = std::stoull(value());
            else if (arg == "--seconds") options.seconds = std::stod(value());
            else if (arg == "--trace") options.trace = value() == "1";
            else if (arg == "--workdir") options.workdir = value();
            else if (arg == "--tiny") options.tiny = true;
            else if (arg == "--record") options.record = true;
            else if (arg == "--prepare") options.prepare = true;
            else if (arg == "--expect-digest") options.expect_digest = value();
            else if (arg == "--expect-accuracy") {
                options.expect_accuracy = std::stod(value());
            } else {
                return Usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::exception&) {
            return Usage(("bad value for " + arg).c_str());
        }
    }
    const bool train = options.workload == "train-dense" ||
                       options.workload == "train-wide";
    const bool serve = options.workload == "serve-steady" ||
                       options.workload == "serve-retrain";
    if (!train && !serve) return Usage("unknown workload");
    if (options.workdir.empty()) return Usage("--workdir is required");
    if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
    if (options.prepare) {
        if (!serve) return Usage("--prepare is for serve-* workloads");
        return PrepareServeModel(options) ? 0 : 1;
    }

    Metrics metrics(options.trace);
    Outcome outcome;
    Provenance provenance;
    if (train) {
        RunTrainWorkload(options, metrics, outcome, provenance);
    } else {
        RunServeWorkload(options, metrics, outcome, provenance);
    }

    const Threads threads = WorkloadThreads(options.workload);
    const unsigned hw = HardwareThreads();
    std::string prov = "{\"workload\": " + JsonString(options.workload) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"seconds\": " + JsonNumber(options.seconds) +
                       ", \"trace\": " + (options.trace ? "1" : "0") +
                       ", \"tiny\": " + (options.tiny ? "true" : "false") +
                       ", \"build_type\": " + JsonString(DFP_PERFBENCH_BUILD_TYPE) +
                       ", \"hardware_threads\": " + std::to_string(hw) +
                       ", \"cpu_model\": " + JsonString(CpuModel()) +
                       ", \"threads\": {\"pipeline\": " +
                       std::to_string(threads.pipeline) +
                       ", \"engine\": " + std::to_string(threads.engine) +
                       ", \"generators\": " + std::to_string(threads.generators) +
                       ", \"connections\": " + std::to_string(threads.connections) +
                       ", \"writers\": " + std::to_string(threads.writers) +
                       ", \"runnable\": " + std::to_string(threads.runnable()) +
                       "}, \"oversubscribed\": " +
                       (threads.runnable() > hw ? "true" : "false");
    for (const auto& [key, json] : provenance) {
        prov += ", " + JsonString(key) + ": " + json;
    }
    std::string errors = "[";
    for (std::size_t i = 0; i < outcome.errors.size(); ++i) {
        errors += (i > 0 ? ", " : "") + JsonString(outcome.errors[i]);
    }
    prov += ", \"errors\": " + errors + "]}";
    std::printf("{\"provenance\": %s}\n", prov.c_str());
    if (options.record) return outcome.correct() ? 0 : 1;

    const std::uint64_t attempted = outcome.attempted > 0 ? outcome.attempted : 1;
    const std::uint64_t failed =
        outcome.correct() ? 0 : (outcome.failed > 0 ? outcome.failed : 1);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                outcome.correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics.ToJson().c_str());
    std::fflush(stdout);
    return outcome.correct() ? 0 : 1;
}
