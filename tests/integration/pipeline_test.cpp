#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/stopwatch.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/dtree/c45.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "ml/svm/svm.hpp"
#include "obs/metrics.hpp"

namespace dfp {
namespace {

TransactionDatabase XorDb(std::size_t rows, std::uint64_t seed) {
    const Dataset data = GenerateXor(rows, 2, 0.0, seed);
    auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

PipelineConfig DefaultConfig() {
    PipelineConfig config;
    config.miner.min_sup_rel = 0.1;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 3;
    return config;
}

TEST(PipelineTest, SolvesXorWhereSingleItemsCannot) {
    // The paper's §3.1.1 motivation: XOR is not linearly separable on single
    // features, but is once pattern features are added.
    const auto db = XorDb(400, 1);

    // Baseline: linear SVM on items only fails (≈ 50%).
    PipelineConfig items_only = DefaultConfig();
    items_only.miner.min_sup_rel = 0.99;  // effectively no patterns
    items_only.feature_selection = false;
    PatternClassifierPipeline baseline(items_only);
    ASSERT_TRUE(baseline.Train(db, std::make_unique<SvmClassifier>()).ok());
    const double base_acc = baseline.Accuracy(db);
    EXPECT_LT(base_acc, 0.70);

    // Pattern pipeline: mines {x=a, y=b} combinations and separates perfectly.
    PatternClassifierPipeline pipeline(DefaultConfig());
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<SvmClassifier>()).ok());
    EXPECT_GT(pipeline.Accuracy(db), 0.95);
}

TEST(PipelineTest, StatsArePopulated) {
    const auto db = XorDb(200, 2);
    PatternClassifierPipeline pipeline(DefaultConfig());
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<C45Classifier>()).ok());
    const auto& stats = pipeline.stats();
    EXPECT_GT(stats.num_candidates, 0u);
    EXPECT_GT(stats.num_selected, 0u);
    EXPECT_LE(stats.num_selected, stats.num_candidates);
    EXPECT_GE(stats.mine_seconds, 0.0);
}

TEST(PipelineTest, FeatureSelectionShrinksFeatureSpace) {
    const auto db = XorDb(300, 3);
    PipelineConfig with_fs = DefaultConfig();
    PipelineConfig without_fs = DefaultConfig();
    without_fs.feature_selection = false;

    PatternClassifierPipeline selected(with_fs);
    PatternClassifierPipeline all(without_fs);
    ASSERT_TRUE(selected.Train(db, std::make_unique<C45Classifier>()).ok());
    ASSERT_TRUE(all.Train(db, std::make_unique<C45Classifier>()).ok());
    EXPECT_LT(selected.feature_space().num_patterns(),
              all.feature_space().num_patterns());
}

TEST(PipelineTest, PerClassVsGlobalMining) {
    const auto db = XorDb(200, 4);
    PipelineConfig global = DefaultConfig();
    global.per_class_mining = false;
    PatternClassifierPipeline pipeline(global);
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<C45Classifier>()).ok());
    EXPECT_GT(pipeline.Accuracy(db), 0.9);
}

TEST(PipelineTest, AllMinerKindsWork) {
    const auto db = XorDb(150, 5);
    for (MinerKind kind :
         {MinerKind::kClosed, MinerKind::kEclat}) {
        PipelineConfig config = DefaultConfig();
        config.miner_kind = kind;
        PatternClassifierPipeline pipeline(config);
        ASSERT_TRUE(pipeline.Train(db, std::make_unique<C45Classifier>()).ok());
        EXPECT_GT(pipeline.Accuracy(db), 0.9)
            << "miner kind " << static_cast<int>(kind);
    }
}

TEST(PipelineTest, WorksWithEveryLearner) {
    const auto db = XorDb(200, 6);
    PatternClassifierPipeline svm_pipe(DefaultConfig());
    ASSERT_TRUE(svm_pipe.Train(db, std::make_unique<SvmClassifier>()).ok());
    PatternClassifierPipeline tree_pipe(DefaultConfig());
    ASSERT_TRUE(tree_pipe.Train(db, std::make_unique<C45Classifier>()).ok());
    PatternClassifierPipeline nb_pipe(DefaultConfig());
    ASSERT_TRUE(nb_pipe.Train(db, std::make_unique<NaiveBayesClassifier>()).ok());
    EXPECT_GT(svm_pipe.Accuracy(db), 0.9);
    EXPECT_GT(tree_pipe.Accuracy(db), 0.9);
    EXPECT_GT(nb_pipe.Accuracy(db), 0.8);
}

TEST(PipelineTest, ErrorsPropagate) {
    const auto db = XorDb(100, 7);
    PatternClassifierPipeline pipeline(DefaultConfig());
    EXPECT_FALSE(pipeline.Train(db, nullptr).ok());

    const auto empty = TransactionDatabase::FromTransactions({}, {}, 3, 2);
    PatternClassifierPipeline pipeline2(DefaultConfig());
    EXPECT_FALSE(pipeline2.Train(empty, std::make_unique<C45Classifier>()).ok());

    // A breached mining budget no longer hard-fails Train: the pipeline
    // degrades (escalating min_sup / truncating) and reports it.
    PipelineConfig tiny_budget = DefaultConfig();
    tiny_budget.miner.max_patterns = 1;
    tiny_budget.miner.min_sup_rel = 0.01;
    PatternClassifierPipeline pipeline3(tiny_budget);
    const Status st = pipeline3.Train(db, std::make_unique<C45Classifier>());
    EXPECT_TRUE(st.ok()) << st;
    EXPECT_TRUE(pipeline3.budget_report().degraded());

    // The strict MineCandidates entry point keeps the all-or-nothing error.
    const auto strict = pipeline3.MineCandidates(db);
    EXPECT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kResourceExhausted);
}

TEST(PipelineTest, CandidatesAreDeduplicatedAcrossClasses) {
    const auto db = XorDb(200, 8);
    PatternClassifierPipeline pipeline(DefaultConfig());
    auto candidates = pipeline.MineCandidates(db);
    ASSERT_TRUE(candidates.ok());
    std::set<Itemset> seen;
    for (const auto& p : *candidates) {
        EXPECT_TRUE(seen.insert(p.items).second)
            << "duplicate " << ItemsetToString(p.items);
        EXPECT_GE(p.length(), 2u);  // singletons excluded from candidates
    }
}

TEST(PipelineTest, TrainWithCandidatesMatchesTrainOnItsPool) {
    // Fed the itemsets Train would mine, twice over and with singletons
    // mixed in, TrainWithCandidates dedups them, re-anchors support on the
    // training database and selects exactly what Train selects.
    const auto db = XorDb(300, 11);
    PatternClassifierPipeline reference(DefaultConfig());
    ASSERT_TRUE(reference.Train(db, std::make_unique<NaiveBayesClassifier>()).ok());
    const auto mined = reference.MineCandidates(db);
    ASSERT_TRUE(mined.ok()) << mined.status();

    std::vector<Pattern> pool;
    for (int copy = 0; copy < 2; ++copy) {
        for (const Pattern& p : *mined) {
            Pattern bare;
            bare.items = p.items;  // itemsets only: no support, cover, counts
            pool.push_back(std::move(bare));
        }
        for (ItemId item = 0; item < db.num_items(); ++item) {
            Pattern single;
            single.items = {item};
            pool.push_back(std::move(single));
        }
    }
    PatternClassifierPipeline fed(DefaultConfig());
    ASSERT_TRUE(fed.TrainWithCandidates(db, std::move(pool),
                                        std::make_unique<NaiveBayesClassifier>())
                    .ok());

    EXPECT_EQ(fed.stats().num_candidates, mined->size());
    EXPECT_EQ(fed.stats().num_candidates, reference.stats().num_candidates);
    EXPECT_EQ(fed.stats().num_selected, reference.stats().num_selected);
    const auto& want = reference.feature_space().patterns();
    const auto& got = fed.feature_space().patterns();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got[k].items, want[k].items) << "feature " << k;
        EXPECT_EQ(got[k].support, want[k].support) << "feature " << k;
    }
    EXPECT_EQ(fed.Accuracy(db), reference.Accuracy(db));
}

TEST(PipelineTest, TrainWithCandidatesReportsCallerMineSeconds) {
    // A caller that mined the pool itself passes its mine time in; the mine
    // stage reports it plus the pooling done inside the call.
    const auto db = XorDb(200, 12);
    PatternClassifierPipeline miner(DefaultConfig());
    const auto mined = miner.MineCandidates(db);
    ASSERT_TRUE(mined.ok()) << mined.status();

    PatternClassifierPipeline fed(DefaultConfig());
    const Stopwatch watch;
    ASSERT_TRUE(fed.TrainWithCandidates(db, *mined,
                                        std::make_unique<NaiveBayesClassifier>(),
                                        /*mine_seconds=*/2.5)
                    .ok());
    const double call_seconds = watch.ElapsedSeconds();
    const double mine_seconds = fed.stats().mine_seconds;
    EXPECT_GE(mine_seconds, 2.5);
    EXPECT_LE(mine_seconds - 2.5, call_seconds);
    EXPECT_EQ(obs::Registry::Get()
                  .GetGauge("dfp.core.pipeline.mine_seconds")
                  .value(),
              mine_seconds);

    // Without a caller figure the stage is the pooling alone.
    ASSERT_TRUE(
        fed.TrainWithCandidates(db, *mined, std::make_unique<NaiveBayesClassifier>())
            .ok());
    EXPECT_GE(fed.stats().mine_seconds, 0.0);
    EXPECT_LT(fed.stats().mine_seconds, 2.5);
}

TEST(PipelineTest, TrainWithCandidatesPoolsInPatternLessOrder) {
    // The pool is canonical: sorted by PatternLess (length, then items),
    // one entry per itemset, whatever order and repeats the caller gave.
    const auto db = XorDb(300, 13);
    PatternClassifierPipeline miner(DefaultConfig());
    const auto mined = miner.MineCandidates(db);
    ASSERT_TRUE(mined.ok()) << mined.status();
    ASSERT_GT(mined->size(), 2u);
    std::vector<Pattern> pool(mined->rbegin(), mined->rend());
    pool.insert(pool.end(), mined->begin(), mined->end());

    PatternClassifierPipeline fed(DefaultConfig());
    ASSERT_TRUE(fed.TrainWithCandidates(db, std::move(pool),
                                        std::make_unique<NaiveBayesClassifier>())
                    .ok());
    const auto& pooled = fed.candidates();
    ASSERT_EQ(pooled.size(), mined->size());
    for (std::size_t k = 1; k < pooled.size(); ++k) {
        EXPECT_TRUE(PatternLess(pooled[k - 1], pooled[k]))
            << ItemsetToString(pooled[k - 1].items) << " before "
            << ItemsetToString(pooled[k].items);
    }
}

TEST(PipelineTest, TrainWithCandidatesReplacesStaleMetadata) {
    // Candidates carrying another database's support, cover and class counts
    // are re-anchored on the training database.
    const auto db = XorDb(200, 14);
    PatternClassifierPipeline miner(DefaultConfig());
    const auto mined = miner.MineCandidates(db);
    ASSERT_TRUE(mined.ok()) << mined.status();
    std::vector<Pattern> stale = *mined;
    for (Pattern& p : stale) {
        p.support = 1;
        p.cover = BitVector(7);
        p.class_counts = {1};
    }
    PatternClassifierPipeline fed(DefaultConfig());
    ASSERT_TRUE(fed.TrainWithCandidates(db, std::move(stale),
                                        std::make_unique<NaiveBayesClassifier>())
                    .ok());
    std::vector<Pattern> expected = *mined;
    AttachMetadata(db, &expected);
    std::map<Itemset, const Pattern*> by_items;
    for (const Pattern& p : expected) by_items[p.items] = &p;
    ASSERT_EQ(fed.candidates().size(), expected.size());
    for (const Pattern& p : fed.candidates()) {
        const Pattern& want = *by_items.at(p.items);
        EXPECT_EQ(p.support, want.support) << ItemsetToString(p.items);
        EXPECT_EQ(p.cover, want.cover) << ItemsetToString(p.items);
        EXPECT_EQ(p.class_counts, want.class_counts) << ItemsetToString(p.items);
    }
}

TEST(PipelineTest, TrainWithCandidatesWithoutPatternsLearnsOnItems) {
    // An empty pool (or one of singletons only) leaves the item block alone.
    const auto db = XorDb(200, 15);
    std::vector<Pattern> singletons(1);
    singletons[0].items = {0};
    PatternClassifierPipeline pipeline(DefaultConfig());
    ASSERT_TRUE(pipeline.TrainWithCandidates(db, std::move(singletons),
                                             std::make_unique<C45Classifier>())
                    .ok());
    EXPECT_EQ(pipeline.stats().num_candidates, 0u);
    EXPECT_EQ(pipeline.stats().num_selected, 0u);
    EXPECT_EQ(pipeline.feature_space().dim(), db.num_items());
    EXPECT_GT(pipeline.Accuracy(db), 0.0);
}

TEST(PipelineTest, TrainWithCandidatesRejectsMissingLearnerAndEmptyDb) {
    const auto db = XorDb(100, 16);
    PatternClassifierPipeline pipeline(DefaultConfig());
    const Status no_learner = pipeline.TrainWithCandidates(db, {}, nullptr);
    EXPECT_EQ(no_learner.code(), StatusCode::kInvalidArgument);
    const auto empty = TransactionDatabase::FromTransactions({}, {}, 3, 2);
    const Status no_rows = pipeline.TrainWithCandidates(
        empty, {}, std::make_unique<C45Classifier>());
    EXPECT_EQ(no_rows.code(), StatusCode::kInvalidArgument);
}

TEST(PipelineTest, PredictionOnUnseenTransactions) {
    const auto train = XorDb(300, 9);
    const auto test = XorDb(100, 10);
    PatternClassifierPipeline pipeline(DefaultConfig());
    ASSERT_TRUE(pipeline.Train(train, std::make_unique<SvmClassifier>()).ok());
    EXPECT_GT(pipeline.Accuracy(test), 0.9);
}

}  // namespace
}  // namespace dfp
