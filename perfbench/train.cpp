// Training workloads: repeated PatternClassifierPipeline::Train on the
// paper's scalability shapes.
//
//   train-dense  chess shape (Table 3): MMRFS dominates; the only workload
//                that runs the significance filter.
//   train-wide   letter shape (Table 5): the dense feature transform and the
//                learner dominate, MMRFS is small.
//
// The table is the shape's own seeded synthetic data; the benchmark seed
// permutes the training rows. The op is one Train() call on a fresh
// pipeline. The traced run also calls each stage's public function in
// Train()'s order on the same inputs (Miner::Mine + AttachMetadata,
// RunSignificanceFilter, RunMmrfs, FeatureSpace::Build + Transform,
// Classifier::Train) and checks that the staged selection equals Train()'s.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/feature_space.hpp"
#include "core/mmrfs.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "exp/experiment.hpp"
#include "fpm/closed_miner.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "obs/metrics.hpp"
#include "stats/significance.hpp"

namespace perfbench {
namespace {

using namespace dfp;

struct TrainWorkload {
    SyntheticSpec spec;
    std::size_t train_rows = 0;
    PipelineConfig config;
};

TrainWorkload MakeTrainWorkload(const RunOptions& options) {
    TrainWorkload w;
    std::size_t min_sup = 0;
    PipelineConfig& c = w.config;
    c.miner_kind = MinerKind::kClosed;
    c.per_class_mining = false;  // whole-database closed mining
    c.miner.max_pattern_len = 5;
    if (options.workload == "train-dense") {
        w.spec = ChessSpec();
        w.train_rows = w.spec.rows;  // 3196
        min_sup = 1600;
        c.mmrfs.coverage_delta = 3;
        c.significance.test = SigTest::kChi2;
        c.significance.alpha = 0.05;
        c.significance.correction = Correction::kBenjaminiHochberg;
    } else {
        w.spec = LetterSpec();
        w.train_rows = w.spec.rows;  // 20000
        min_sup = 4500;
        c.mmrfs.coverage_delta = 2;
        c.mmrfs.max_features = 600;
    }
    if (options.tiny) {
        w.train_rows /= 8;
        min_sup /= 8;
    }
    c.miner.min_sup_rel = -1.0;
    c.miner.min_sup_abs = min_sup;
    // A quarter again as many rows, drawn from the same generator, are held
    // out for the accuracy check. The table keeps the shape's own generator
    // seed, so every benchmark seed trains on the same rows and does the same
    // work; the benchmark seed only permutes the order of the training rows
    // (selection and model must not depend on it).
    w.spec.rows = w.train_rows + w.train_rows / 4;
    return w;
}

/// FNV-1a 64 over the candidate count and the selected patterns' itemsets,
/// in selection order.
std::string SelectionDigest(std::size_t num_candidates,
                            const std::vector<Pattern>& selected) {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(num_candidates);
    mix(selected.size());
    for (const Pattern& p : selected) {
        mix(p.items.size());
        for (ItemId i : p.items) mix(i);
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

bool SameItemsets(const std::vector<Pattern>& a, const std::vector<Pattern>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].items != b[i].items) return false;
    }
    return true;
}

std::uint64_t CounterValue(const obs::MetricsSnapshot& snap, const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

/// One staged pass: each training layer called through its public function,
/// in Train()'s order, with the same configuration Train() resolves.
struct StagedPass {
    double mine_ms = 0, filter_ms = 0, mmrfs_ms = 0, transform_ms = 0,
           learn_ms = 0;
    std::size_t candidates = 0, rejected = 0, dim = 0;
    std::uint64_t iterations = 0, accepted = 0, redundancy_evals = 0;
    std::vector<Pattern> candidate_set;
    std::vector<Pattern> selected;
    bool ok = true;
    std::string error;
};

StagedPass RunStages(const TransactionDatabase& train,
                     const PipelineConfig& config) {
    StagedPass pass;
    auto timed = [](auto&& body) {
        const auto start = Clock::now();
        body();
        return Millis(Clock::now() - start);
    };

    // fpm: whole-database closed mining, singletons dropped (they are the I
    // block of the feature space), metadata attached against `train`.
    pass.mine_ms = timed([&] {
        MinerConfig mc = config.miner;
        mc.include_singletons = false;
        auto mined = ClosedMiner().Mine(train, mc);
        if (!mined.ok()) {
            pass.ok = false;
            pass.error = "mine: " + mined.status().ToString();
            return;
        }
        pass.candidate_set = std::move(mined).value();
        AttachMetadata(train, &pass.candidate_set);
    });
    if (!pass.ok) return pass;
    pass.candidates = pass.candidate_set.size();

    SignificanceResult sig;
    const std::vector<char>* mask = nullptr;
    if (config.significance.test != SigTest::kNone) {
        pass.filter_ms = timed([&] {
            sig = RunSignificanceFilter(train, pass.candidate_set,
                                        config.significance);
        });
        if (sig.breach == BudgetBreach::kNone) mask = &sig.keep;
        pass.rejected = sig.rejected;
    }

    const auto before = obs::Registry::Get().Snapshot();
    MmrfsResult selection;
    pass.mmrfs_ms = timed([&] {
        MmrfsConfig mc = config.mmrfs;
        mc.candidate_mask = mask;
        selection = RunMmrfs(train, pass.candidate_set, mc);
    });
    const auto after = obs::Registry::Get().Snapshot();
    auto delta = [&](const char* name) {
        return CounterValue(after, name) - CounterValue(before, name);
    };
    pass.iterations = delta("dfp.core.mmrfs.iterations");
    pass.accepted = delta("dfp.core.mmrfs.accepted");
    pass.redundancy_evals = delta("dfp.core.mmrfs.redundancy_evals");
    for (std::size_t i : selection.selected) {
        pass.selected.push_back(pass.candidate_set[i]);
    }

    FeatureMatrix x;
    pass.transform_ms = timed([&] {
        const FeatureSpace space = FeatureSpace::Build(
            config.include_single_items ? train.num_items() : 0, pass.selected);
        x = space.Transform(train);
        pass.dim = space.dim();
    });

    pass.learn_ms = timed([&] {
        NaiveBayesClassifier learner;
        const Status st = learner.Train(x, train.labels(), train.num_classes());
        if (!st.ok()) {
            pass.ok = false;
            pass.error = "learn: " + st.ToString();
        }
    });
    return pass;
}

}  // namespace

void RunTrainWorkload(const RunOptions& options, Metrics& metrics,
                      Outcome& outcome, Provenance& provenance) {
    const TrainWorkload w = MakeTrainWorkload(options);

    // Input generation (not timed): the seeded synthetic table.
    const Dataset raw = GenerateSynthetic(w.spec);

    // Set-up a user pays once: encoding rows into a TransactionDatabase. It
    // is repeated after every timed Train() of an untraced run; a repetition
    // whose database is dropped frees it after the timer.
    std::vector<double> setup_s;
    auto set_up = [&] {
        const auto start = Clock::now();
        TransactionDatabase db = DatasetToTransactions(raw);
        setup_s.push_back(MicrosSince(start) / 1e6);
        return db;
    };
    const TransactionDatabase all = set_up();
    std::vector<std::size_t> train_idx(w.train_rows);
    std::vector<std::size_t> test_idx(all.num_transactions() - w.train_rows);
    for (std::size_t r = 0; r < train_idx.size(); ++r) train_idx[r] = r;
    Rng rng(MixSeed(options.seed, 0x7261696eull));
    std::shuffle(train_idx.begin(), train_idx.end(), rng);
    for (std::size_t r = 0; r < test_idx.size(); ++r) {
        test_idx[r] = w.train_rows + r;
    }
    const TransactionDatabase train = all.Subset(train_idx);
    const TransactionDatabase test = all.Subset(test_idx);

    auto train_once = [&](PatternClassifierPipeline& pipeline) {
        return pipeline.Train(train, std::make_unique<NaiveBayesClassifier>());
    };

    // Reference run: its selection digest and held-out accuracy are checked
    // against the values recorded for this seed, and every timed op must
    // reproduce the digest.
    PatternClassifierPipeline reference(w.config);
    ++outcome.attempted;
    if (const Status st = train_once(reference); !st.ok()) {
        outcome.Fail("reference Train failed: " + st.ToString());
        return;
    }
    const auto& selected = reference.feature_space().patterns();
    const std::string digest =
        SelectionDigest(reference.stats().num_candidates, selected);
    const double accuracy = reference.Accuracy(test);
    char acc_buf[32];
    std::snprintf(acc_buf, sizeof(acc_buf), "%.6f", accuracy);
    provenance.emplace_back("digest", JsonString(digest));
    provenance.emplace_back("accuracy", acc_buf);
    provenance.emplace_back("candidates",
                            std::to_string(reference.stats().num_candidates));
    provenance.emplace_back("selected", std::to_string(selected.size()));
    provenance.emplace_back("sig_rejected",
                            std::to_string(reference.stats().num_sig_rejected));
    provenance.emplace_back("train_rows", std::to_string(train.num_transactions()));
    if (options.record) return;
    if (!options.expect_digest.empty()) {
        provenance.emplace_back("gate", JsonString("recorded"));
        if (digest != options.expect_digest) {
            outcome.Fail("selection digest " + digest + " != recorded " +
                         options.expect_digest);
        }
        if (!(std::abs(std::stod(acc_buf) - options.expect_accuracy) < 5e-7)) {
            outcome.Fail(std::string("held-out accuracy ") + acc_buf +
                         " != recorded " + std::to_string(options.expect_accuracy));
        }
    } else {
        provenance.emplace_back("gate", JsonString("self-consistent"));
    }

    // The staged pass must select exactly what Train() selects.
    {
        const StagedPass pass = RunStages(train, w.config);
        ++outcome.attempted;
        if (!pass.ok) {
            outcome.Fail("staged pass: " + pass.error);
        } else if (!SameItemsets(pass.candidate_set, reference.candidates()) ||
                   !SameItemsets(pass.selected, selected)) {
            outcome.Fail("staged selection differs from Train()'s");
        }
    }

    /// One timed Train() on a fresh pipeline: its wall and process CPU ms.
    struct TrainTimes {
        double ms;
        double cpu_ms;
    };
    auto timed_train = [&] {
        PatternClassifierPipeline pipeline(w.config);
        ++outcome.attempted;
        const double cpu0 = ProcessCpuSeconds();
        const auto start = Clock::now();
        const Status st = train_once(pipeline);
        const TrainTimes times{Millis(Clock::now() - start),
                               1e3 * (ProcessCpuSeconds() - cpu0)};
        if (!st.ok()) {
            outcome.Fail("Train failed: " + st.ToString());
        } else if (SelectionDigest(pipeline.stats().num_candidates,
                                   pipeline.feature_space().patterns()) != digest) {
            outcome.Fail("Train selection differs from the reference run");
        }
        return times;
    };

    const double rows = static_cast<double>(train.num_transactions());
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(options.seconds);
    std::vector<double> latencies, cpu_ms;
    if (!options.trace) {
        double train_s = 0.0;
        do {
            const TrainTimes t = timed_train();
            latencies.push_back(t.ms);
            cpu_ms.push_back(t.cpu_ms);
            train_s += t.ms / 1e3;
            set_up();
        } while (Clock::now() < deadline);
        const auto ops = static_cast<double>(latencies.size());
        metrics.Set("setup_s", Percentile(setup_s, 0.0));
        // Every Train() of a run does identical work, so the fastest one is
        // its cost on an undisturbed host (see kEndToEnd).
        metrics.Set("latency_floor_ms", Percentile(latencies, 0.0));
        metrics.Set("peak_rss_mb", PeakRssMb());
        provenance.emplace_back("ops", std::to_string(latencies.size()));
        provenance.emplace_back("latency_ms", LatencySummary(latencies));
        provenance.emplace_back("cpu_ms", LatencySummary(cpu_ms));
        provenance.emplace_back("setup_s", LatencySummary(setup_s));
        provenance.emplace_back("rows_per_s", JsonNumber(rows * ops / train_s));
        return;
    }

    // Traced run: per iteration one Train() and one staged pass, so both see
    // the same machine state.
    std::vector<double> staged, mine, filter, mmrfs, transform, learn;
    StagedPass last;
    do {
        const TrainTimes t = timed_train();
        latencies.push_back(t.ms);
        cpu_ms.push_back(t.cpu_ms);
        const auto start = Clock::now();
        StagedPass pass = RunStages(train, w.config);
        staged.push_back(Millis(Clock::now() - start));
        ++outcome.attempted;
        if (!pass.ok) {
            outcome.Fail("staged pass: " + pass.error);
            break;
        }
        if (!SameItemsets(pass.selected, selected)) {
            outcome.Fail("staged selection differs from Train()'s");
        }
        mine.push_back(pass.mine_ms);
        filter.push_back(pass.filter_ms);
        mmrfs.push_back(pass.mmrfs_ms);
        transform.push_back(pass.transform_ms);
        learn.push_back(pass.learn_ms);
        last = std::move(pass);
    } while (Clock::now() < deadline);

    const double op = Median(latencies);
    const double stage_sum = Median(mine) + Median(filter) + Median(mmrfs) +
                             Median(transform) + Median(learn);
    metrics.Set("train.op_ms", op);
    metrics.Set("train.latency_p90_ms", Percentile(latencies, 0.9));
    metrics.Set("train.latency_samples", static_cast<double>(latencies.size()));
    metrics.Set("train.cpu_ms_per_op", Median(cpu_ms));
    double train_ms = 0.0;
    for (double ms : latencies) train_ms += ms;
    metrics.Set("train.rows_per_s",
                rows * static_cast<double>(latencies.size()) / (train_ms / 1e3));
    metrics.Set("train.stage_sum_ms", stage_sum);
    metrics.Set("train.residual_ms", op - stage_sum);
    metrics.Set("fpm.mine_ms", Median(mine));
    metrics.Set("fpm.candidates", static_cast<double>(last.candidates));
    metrics.Set("stats.filter_ms", Median(filter));
    metrics.Set("stats.rejected", static_cast<double>(last.rejected));
    metrics.Set("core.mmrfs_ms", Median(mmrfs));
    metrics.Set("core.mmrfs.iterations", static_cast<double>(last.iterations));
    metrics.Set("core.mmrfs.accepted", static_cast<double>(last.accepted));
    metrics.Set("core.mmrfs.accept_ratio",
                last.iterations > 0 ? static_cast<double>(last.accepted) /
                                          static_cast<double>(last.iterations)
                                    : 0.0);
    metrics.Set("core.mmrfs.redundancy_evals",
                static_cast<double>(last.redundancy_evals));
    metrics.Set("core.transform_ms", Median(transform));
    metrics.Set("core.transform_mb",
                rows * static_cast<double>(last.dim) * 8.0 / 1e6);
    metrics.Set("ml.learn_ms", Median(learn));
    // What the staged pass spends outside its stage timers (the counter
    // snapshots around RunMmrfs and the timers themselves).
    metrics.Set("trace.overhead_pct", 100.0 * (Median(staged) - stage_sum) / op);
    provenance.emplace_back("ops", std::to_string(latencies.size()));
    provenance.emplace_back("residual_pct",
                            JsonNumber(100.0 * (op - stage_sum) / op));
}

}  // namespace perfbench
