// Microbenchmarks of the core framework machinery: MMRFS selection, feature-
// space transformation, measures/bounds, and the popcount kernel under every
// cover count.
//
// The letter-shape cases time the stages of the perfbench train-wide
// workload (20000 rows × 112 items, 122 candidates, ~120 selected patterns):
// MMRFS over 313-word covers, the Transform that copies covers into the
// bit-packed FeatureMatrix, then the learners on it — naive Bayes (on
// Transform output, which it counts by popcount, and on the matrix Train()
// builds, which carries its class counts), C4.5, and one one-vs-one SMO pair.
#include <benchmark/benchmark.h>

#include "common/popcount.hpp"
#include "common/rng.hpp"
#include "core/bounds.hpp"
#include "core/feature_space.hpp"
#include "core/measures.hpp"
#include "core/mmrfs.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "exp/experiment.hpp"
#include "ml/dtree/c45.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "ml/svm/smo.hpp"

namespace dfp {
namespace {

struct Fixture {
    TransactionDatabase db;
    std::vector<Pattern> candidates;
};

const Fixture& BenchFixture() {
    static const Fixture fixture = [] {
        SyntheticSpec spec;
        spec.rows = 800;
        spec.attributes = 12;
        spec.arity = 3;
        spec.classes = 2;
        spec.seed = 17;
        const Dataset data = GenerateSynthetic(spec);
        const auto encoder = ItemEncoder::FromSchema(data);
        Fixture f{TransactionDatabase::FromDataset(data, *encoder), {}};
        PipelineConfig config;
        config.miner.min_sup_rel = 0.05;
        config.miner.max_pattern_len = 5;
        PatternClassifierPipeline pipeline(config);
        f.candidates = std::move(*pipeline.MineCandidates(f.db));
        return f;
    }();
    return fixture;
}

void BM_Mmrfs(benchmark::State& state) {
    const auto& f = BenchFixture();
    MmrfsConfig config;
    config.coverage_delta = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        const auto result = RunMmrfs(f.db, f.candidates, config);
        benchmark::DoNotOptimize(result.selected.size());
    }
    state.counters["candidates"] = static_cast<double>(f.candidates.size());
}
BENCHMARK(BM_Mmrfs)->Arg(1)->Arg(3)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FeatureTransform(benchmark::State& state) {
    const auto& f = BenchFixture();
    const auto k = std::min<std::size_t>(f.candidates.size(),
                                         static_cast<std::size_t>(state.range(0)));
    std::vector<Pattern> selected(f.candidates.begin(), f.candidates.begin() + k);
    const FeatureSpace space =
        FeatureSpace::Build(f.db.num_items(), std::move(selected));
    for (auto _ : state) {
        const FeatureMatrix x = space.Transform(f.db);
        benchmark::DoNotOptimize(x.rows());
    }
}
BENCHMARK(BM_FeatureTransform)->Arg(50)->Arg(500)->Unit(benchmark::kMillisecond);

/// The train-wide shape: letter rows, the candidate pool mined from them and
/// the feature space Train() selects, with the perfbench train-wide
/// configuration.
struct LetterFixture {
    TransactionDatabase db;
    std::vector<Pattern> candidates;
    MmrfsConfig mmrfs;
    FeatureSpace space;
};

const LetterFixture& Letter() {
    static const LetterFixture fixture = [] {
        SyntheticSpec spec = LetterSpec();
        spec.rows = 20000;
        LetterFixture f{DatasetToTransactions(GenerateSynthetic(spec)), {}, {},
                        {}};
        PipelineConfig config;
        config.miner_kind = MinerKind::kClosed;
        config.per_class_mining = false;
        config.miner.max_pattern_len = 5;
        config.miner.min_sup_rel = -1.0;
        config.miner.min_sup_abs = 4500;
        config.mmrfs.coverage_delta = 2;
        config.mmrfs.max_features = 600;
        PatternClassifierPipeline pipeline(config);
        if (auto mined = pipeline.MineCandidates(f.db); mined.ok()) {
            f.candidates = std::move(*mined);
        }
        f.mmrfs = config.mmrfs;
        if (pipeline.Train(f.db, std::make_unique<NaiveBayesClassifier>()).ok()) {
            f.space = pipeline.feature_space();
        }
        return f;
    }();
    return fixture;
}

void LetterCounters(benchmark::State& state) {
    const auto& f = Letter();
    state.counters["rows"] = static_cast<double>(f.db.num_transactions());
    state.counters["items"] = static_cast<double>(f.space.num_items());
    state.counters["patterns"] = static_cast<double>(f.space.num_patterns());
}

/// MMRFS on the train-wide pool: ~7.3k redundancy evaluations, each one
/// AndCount pass over a 313-word cover pair.
void BM_MmrfsLetter(benchmark::State& state) {
    const auto& f = Letter();
    std::size_t selected = 0;
    for (auto _ : state) {
        const auto result = RunMmrfs(f.db, f.candidates, f.mmrfs);
        selected = result.selected.size();
        benchmark::DoNotOptimize(selected);
    }
    state.counters["candidates"] = static_cast<double>(f.candidates.size());
    state.counters["selected"] = static_cast<double>(selected);
}
BENCHMARK(BM_MmrfsLetter)->Unit(benchmark::kMillisecond);

void BM_FeatureTransformLetter(benchmark::State& state) {
    const auto& f = Letter();
    for (auto _ : state) {
        FeatureMatrix x = f.space.Transform(f.db);
        benchmark::DoNotOptimize(x.cols());
        benchmark::ClobberMemory();
    }
    LetterCounters(state);
}
BENCHMARK(BM_FeatureTransformLetter)->Unit(benchmark::kMillisecond);

/// The learner's share: NaiveBayes Train over the transformed matrix.
void BM_NaiveBayesTrainLetter(benchmark::State& state) {
    const auto& f = Letter();
    const FeatureMatrix x = f.space.Transform(f.db);
    for (auto _ : state) {
        NaiveBayesClassifier learner;
        benchmark::DoNotOptimize(
            learner.Train(x, f.db.labels(), f.db.num_classes()).ok());
    }
    LetterCounters(state);
}
BENCHMARK(BM_NaiveBayesTrainLetter)->Unit(benchmark::kMillisecond);

/// The matrix Train() hands its learner: Transform's columns with their
/// class counts attached (the database's item table for item columns, the
/// candidates' AttachMetadata counts for pattern columns).
FeatureMatrix LetterWithCounts() {
    const auto& f = Letter();
    FeatureMatrix x = f.space.Transform(f.db);
    const std::size_t k = f.db.num_classes();
    const std::vector<std::size_t>& items = f.db.ItemClassCounts();
    std::vector<std::size_t> counts(items.begin(),
                                    items.begin() + f.space.num_items() * k);
    for (std::size_t c = f.space.num_items(); c < x.cols(); ++c) {
        const auto pattern = f.db.ClassCountsOf(x.Column(c));
        counts.insert(counts.end(), pattern.begin(), pattern.end());
    }
    x.SetClassCounts(std::move(counts), k);
    return x;
}

/// NaiveBayes Train over the matrix Train() builds, so it only takes the logs.
void BM_NaiveBayesTrainLetterWithCounts(benchmark::State& state) {
    const auto& f = Letter();
    const FeatureMatrix x = LetterWithCounts();
    for (auto _ : state) {
        NaiveBayesClassifier learner;
        benchmark::DoNotOptimize(
            learner.Train(x, f.db.labels(), f.db.num_classes()).ok());
    }
    LetterCounters(state);
}
BENCHMARK(BM_NaiveBayesTrainLetterWithCounts)->Unit(benchmark::kMillisecond);

/// C4.5 over the whole letter matrix (26 classes).
void BM_C45TrainLetter(benchmark::State& state) {
    const auto& f = Letter();
    const FeatureMatrix x = f.space.Transform(f.db);
    for (auto _ : state) {
        C45Classifier learner;
        benchmark::DoNotOptimize(
            learner.Train(x, f.db.labels(), f.db.num_classes()).ok());
    }
    LetterCounters(state);
}
BENCHMARK(BM_C45TrainLetter)->Unit(benchmark::kMillisecond);

/// One one-vs-one SMO pair of the letter matrix (classes 0 and 1, linear
/// kernel), the unit of work SvmClassifier repeats for all 325 pairs.
void BM_SmoPairTrainLetter(benchmark::State& state) {
    const auto& f = Letter();
    const PackedRows all(f.space.Transform(f.db));
    std::vector<std::size_t> rows;
    std::vector<int> labels;
    for (std::size_t r = 0; r < f.db.num_transactions(); ++r) {
        const ClassLabel c = f.db.label(r);
        if (c > 1) continue;
        rows.push_back(r);
        labels.push_back(c == 0 ? 1 : -1);
    }
    const PackedRows pair = all.SelectRows(rows);
    for (auto _ : state) {
        const auto model = TrainSmo(pair, labels, SmoConfig{});
        benchmark::DoNotOptimize(model.ok());
    }
    LetterCounters(state);
    state.counters["pair_rows"] = static_cast<double>(rows.size());
}
BENCHMARK(BM_SmoPairTrainLetter)->Unit(benchmark::kMillisecond);

void BM_PatternRelevance(benchmark::State& state) {
    const auto& f = BenchFixture();
    for (auto _ : state) {
        double total = 0.0;
        for (const Pattern& p : f.candidates) {
            total += PatternRelevance(RelevanceMeasure::kInfoGain, f.db, p);
        }
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_PatternRelevance)->Unit(benchmark::kMillisecond);

void BM_IgUpperBound(benchmark::State& state) {
    for (auto _ : state) {
        double total = 0.0;
        for (int i = 1; i < 1000; ++i) total += IgUpperBound(i / 1000.0, 0.37);
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_IgUpperBound);

// |A∧B| of two random covers of range(0) words: 50 is the chess width (3196
// rows), 313 the letter width (20000 rows), 1024 a wide case. Runs whichever
// popcount body this host chose; the benchmark's label names it.
void BM_AndCount(benchmark::State& state) {
    const std::size_t bits = static_cast<std::size_t>(state.range(0)) * 64;
    Rng rng(29);
    BitVector a(bits);
    BitVector b(bits);
    for (std::size_t i = 0; i < bits; ++i) {
        if (rng.Bernoulli(0.5)) a.Set(i);
        if (rng.Bernoulli(0.5)) b.Set(i);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.AndCount(b));
    }
    state.SetLabel(PopcountPath());
}
BENCHMARK(BM_AndCount)->Arg(50)->Arg(313)->Arg(1024);

}  // namespace
}  // namespace dfp
