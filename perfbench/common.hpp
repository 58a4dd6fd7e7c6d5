// Shared pieces of the benchmark driver: the metric tables, run options and
// outcome, host shape and timing statistics.
//
// The metric tables below are the single source of the names and units the
// driver prints; run.py checks them against BENCHMARK.json before it prints
// a result.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec {
    const char* name;
    const char* unit;
};

/// Printed with --trace 0, on every workload. None is ever 0.
///
/// The op latency is reported as its floor. On a shared host, neighbours
/// slow the CPU by up to 40% in stretches from a second to minutes, so within
/// one run the same Train() takes 55 or 85 ms and a run's median lands in
/// either mode; over ten seeds its spread reached 35%. The floor follows the
/// program's own cost: the fastest Train() of the run (hundreds of identical
/// ops), and the 10th percentile of predict round trips, whose minimum is
/// only a request that arrived as a micro-batch closed. The set-up time is
/// the fastest of the set-ups repeated across the whole run, each freed after
/// its timer: one set-up takes 2-45 ms, and any one stretch of the run (its
/// first second especially) may catch the host slowed by its neighbours.
/// The median, tail latency, throughput (each workload is one closed loop,
/// so it is the reciprocal of mean latency) and CPU per op vary with the
/// host by more than a bound could allow; they are reported as provenance
/// and per-layer diagnostics instead of bounded metrics.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_floor_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Printed with --trace 1, on every workload; a layer the workload does not
/// run reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    // Training stages, called one by one in Train()'s order (train-*).
    {"train.op_ms", "ms"},
    {"train.latency_p90_ms", "ms"},
    {"train.latency_samples", "count"},
    {"train.rows_per_s", "1/s"},
    {"train.cpu_ms_per_op", "ms"},
    {"train.stage_sum_ms", "ms"},
    {"train.residual_ms", "ms"},
    {"fpm.mine_ms", "ms"},
    {"fpm.candidates", "count"},
    {"stats.filter_ms", "ms"},
    {"stats.rejected", "count"},
    {"core.mmrfs_ms", "ms"},
    {"core.mmrfs.iterations", "count"},
    {"core.mmrfs.accepted", "count"},
    {"core.mmrfs.accept_ratio", "ratio"},
    {"core.mmrfs.redundancy_evals", "count"},
    {"core.transform_ms", "ms"},
    {"core.transform_mb", "MB"},
    {"ml.learn_ms", "ms"},
    // Serving chain, each layer called from outside (serve-*).
    {"serve.score_us", "us"},
    {"serve.index.postings_per_pred", "count"},
    {"serve.engine_ms", "ms"},
    {"serve.engine_self_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.batch_wait_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.dispatch_ms", "ms"},
    {"serve.dispatch_self_ms", "ms"},
    {"serve.roundtrip_ms", "ms"},
    {"serve.roundtrip_self_ms", "ms"},
    {"serve.roundtrip_p90_ms", "ms"},
    {"serve.roundtrip_p99_ms", "ms"},
    {"serve.roundtrip_samples", "count"},
    {"serve.preds_per_s", "1/s"},
    {"serve.cpu_us_per_pred", "us"},
    {"serve.residual_ms", "ms"},
    {"serve.generator_cpu_us_per_pred", "us"},
    {"serve.shed", "count"},
    {"serve.errors", "count"},
    // Model publication and the streaming writer (serve-retrain).
    {"serve.registry.reload_ms", "ms"},
    {"stream.ingest_us_per_row", "us"},
    {"stream.retrain_ms", "ms"},
    {"stream.retrain.mine_ms", "ms"},
    {"stream.retrain.mmrfs_ms", "ms"},
    {"stream.retrain.transform_ms", "ms"},
    {"stream.retrain.learn_ms", "ms"},
    {"stream.retrain.residual_ms", "ms"},
    {"stream.retrains", "count"},
    // The traced run's own work outside its layer timers, as a share of
    // the timed calls.
    {"trace.overhead_pct", "%"},
};

/// Name -> value for one metric table; every name starts at 0.
class Metrics {
  public:
    explicit Metrics(bool per_layer);
    /// Sets a metric of the table; an unknown name is a programming error
    /// and aborts the run.
    void Set(std::string_view name, double value);
    std::string ToJson() const;

  private:
    std::vector<std::pair<MetricSpec, double>> values_;
};

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /// Small inputs for the smoke test; never recorded or compared.
    bool tiny = false;
    /// Scratch directory inside the checkout (model bundles).
    std::string workdir;
    /// serve-*: train the served model and save it into `workdir`, then stop.
    /// run.py does this in a process of its own, so the measured process
    /// only loads the bundle and its peak memory is the serving stack's.
    bool prepare = false;
    /// Recorded reference values for train-* (empty / NaN = not recorded).
    std::string expect_digest;
    double expect_accuracy = std::numeric_limits<double>::quiet_NaN();
    /// Print the reference values for the seed and stop (train-*).
    bool record = false;
};

/// Operations attempted and failed, plus the reasons for failures.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void Fail(std::string why, std::uint64_t ops = 1);
    bool correct() const { return failed == 0 && errors.empty(); }
};

/// Key -> already-rendered JSON value, printed as the provenance line.
using Provenance = std::vector<std::pair<std::string, std::string>>;

std::string JsonString(std::string_view s);
std::string JsonNumber(double v);

/// Host shape.
unsigned HardwareThreads();
std::string CpuModel();

/// Resource usage of this process / the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
double PeakRssMb();

/// Derives an input seed from the benchmark seed and a per-input salt.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt);

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
    return Percentile(std::move(values), 0.5);
}

/// {"min", "p10", "p25", "p50", "p90", "p99", "max", "samples"} as JSON.
std::string LatencySummary(const std::vector<double>& values);

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point origin) {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin)
        .count();
}

inline double Millis(Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
}

/// Workload entry points. Each fills `metrics`, `outcome` and `provenance`.
void RunTrainWorkload(const RunOptions& options, Metrics& metrics,
                      Outcome& outcome, Provenance& provenance);
void RunServeWorkload(const RunOptions& options, Metrics& metrics,
                      Outcome& outcome, Provenance& provenance);
/// serve-*: trains the served model and saves it into `options.workdir`.
/// Returns false (with the reason on standard error) when that fails.
bool PrepareServeModel(const RunOptions& options);

}  // namespace perfbench
