// Microbenchmarks of the core framework machinery: MMRFS selection, feature-
// space transformation, measures/bounds, and BitVector cover kernels.
//
// The letter-shape cases split the training-matrix cost of the perfbench
// train-wide workload (20000 rows × 112 items, ~120 selected patterns) into
// allocating the dense matrix, the whole Transform, and the learner's pass
// over it.
#include <benchmark/benchmark.h>

#include "core/bounds.hpp"
#include "core/feature_space.hpp"
#include "core/measures.hpp"
#include "core/mmrfs.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "exp/experiment.hpp"
#include "ml/nb/naive_bayes.hpp"

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

/// The train-wide shape: letter rows and the feature space Train() selects
/// on them with the perfbench train-wide configuration.
struct LetterFixture {
    TransactionDatabase db;
    FeatureSpace space;
};

const LetterFixture& Letter() {
    static const LetterFixture fixture = [] {
        SyntheticSpec spec = LetterSpec();
        spec.rows = 20000;
        LetterFixture f{DatasetToTransactions(GenerateSynthetic(spec)), {}};
        PipelineConfig config;
        config.miner_kind = MinerKind::kClosed;
        config.per_class_mining = false;
        config.miner.max_pattern_len = 5;
        config.miner.min_sup_rel = -1.0;
        config.miner.min_sup_abs = 4500;
        config.mmrfs.coverage_delta = 2;
        config.mmrfs.max_features = 600;
        PatternClassifierPipeline pipeline(config);
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

void BM_FeatureTransformLetter(benchmark::State& state) {
    const auto& f = Letter();
    for (auto _ : state) {
        FeatureMatrix x = f.space.Transform(f.db);
        benchmark::DoNotOptimize(x.MutableRow(0).data());
        benchmark::ClobberMemory();
    }
    LetterCounters(state);
}
BENCHMARK(BM_FeatureTransformLetter)->Unit(benchmark::kMillisecond);

/// The floor under any dense Transform: allocating and zero-filling the
/// rows × dim double matrix.
void BM_DenseMatrixLetter(benchmark::State& state) {
    const auto& f = Letter();
    for (auto _ : state) {
        FeatureMatrix x(f.db.num_transactions(), f.space.dim());
        benchmark::DoNotOptimize(x.MutableRow(0).data());
        benchmark::ClobberMemory();
    }
    LetterCounters(state);
}
BENCHMARK(BM_DenseMatrixLetter)->Unit(benchmark::kMillisecond);

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

void BM_CoverAndCount(benchmark::State& state) {
    const auto& f = BenchFixture();
    const BitVector& a = f.db.ItemCover(0);
    const BitVector& b = f.db.ItemCover(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.AndCount(b));
    }
}
BENCHMARK(BM_CoverAndCount);

}  // namespace
}  // namespace dfp
