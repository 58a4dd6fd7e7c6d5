// Certificate for candidate pooling: the pipeline pools one whole-database
// mine by moving the miner's output and dedups only across per-class
// partitions. Its pool must equal a reference that pools every mine through
// an itemset set (the old hash-set pool) and then attaches metadata: same
// itemsets in the same order with the same support, cover and class counts,
// for the closed miner and Eclat, per-class mining on and off, and mines cut
// short by a pattern cap. A second test pins the premise of the move: one
// mine never emits an itemset twice, at any thread count.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"
#include "ml/nb/naive_bayes.hpp"

namespace dfp {
namespace {

TransactionDatabase RandomDb(std::uint64_t seed, std::size_t rows,
                             std::size_t items, std::size_t classes,
                             double density) {
    Rng rng(seed);
    std::vector<std::vector<ItemId>> txns(rows);
    std::vector<ClassLabel> labels(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        labels[r] = static_cast<ClassLabel>(rng.UniformInt(classes));
        for (ItemId i = 0; i < items; ++i) {
            // Class-dependent density so partitions mine different sets.
            const double p = density + (i % classes == labels[r] ? 0.25 : 0.0);
            if (rng.Bernoulli(p)) txns[r].push_back(i);
        }
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items,
                                                 classes);
}

// Every partition mined as the pipeline mines it, pooled through an itemset
// set in partition order (a repeat of an earlier itemset is dropped), then
// re-anchored on `train`.
std::vector<Pattern> ReferencePool(const TransactionDatabase& train,
                                   const PipelineConfig& config) {
    const std::unique_ptr<Miner> miner = MakeMiner(config.miner_kind);
    MinerConfig mc = config.miner;
    mc.include_singletons = false;
    std::vector<std::vector<Pattern>> partitions;
    auto mine = [&](const TransactionDatabase& part) {
        auto mined = miner->MineBudgeted(part, mc);
        EXPECT_TRUE(mined.ok());
        partitions.push_back(std::move(mined.value().patterns));
    };
    if (config.per_class_mining) {
        for (ClassLabel c = 0; c < train.num_classes(); ++c) {
            const TransactionDatabase part = train.FilterByClass(c);
            if (part.num_transactions() != 0) mine(part);
        }
    } else {
        mine(train);
    }
    std::set<Itemset> seen;
    std::vector<Pattern> pool;
    for (auto& mined : partitions) {
        for (Pattern& p : mined) {
            if (seen.insert(p.items).second) pool.push_back(std::move(p));
        }
    }
    AttachMetadata(train, &pool);
    return pool;
}

void ExpectSamePool(const std::vector<Pattern>& got,
                    const std::vector<Pattern>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "candidate " << i << " "
                                        << ItemsetToString(want[i].items));
        EXPECT_EQ(got[i].items, want[i].items);
        EXPECT_EQ(got[i].support, want[i].support);
        EXPECT_EQ(got[i].cover, want[i].cover);
        EXPECT_EQ(got[i].class_counts, want[i].class_counts);
    }
}

struct PoolCase {
    MinerKind kind;
    bool per_class;
    std::size_t cap;  // MinerConfig::max_patterns; 0 = uncapped
};

PipelineConfig CaseConfig(const PoolCase& pc) {
    PipelineConfig config;
    config.miner_kind = pc.kind;
    config.per_class_mining = pc.per_class;
    config.miner.min_sup_rel = 0.12;
    config.miner.max_pattern_len = 4;
    if (pc.cap != 0) config.miner.max_patterns = pc.cap;
    // Accept a capped mine as it is: no min_sup escalation, no re-mine.
    config.degrade.escalate_min_sup = false;
    return config;
}

TEST(CandidatePoolCertificateTest, PoolEqualsHashSetPoolReference) {
    std::size_t pooled = 0;
    for (const std::uint64_t seed : {1u, 7u, 13u, 21u, 34u}) {
        const auto db = RandomDb(seed, 120, 11, 3, 0.35);
        for (const MinerKind kind : {MinerKind::kClosed, MinerKind::kEclat}) {
            for (const bool per_class : {false, true}) {
                for (const std::size_t cap : {std::size_t{0}, std::size_t{25}}) {
                    const PoolCase pc{kind, per_class, cap};
                    SCOPED_TRACE(testing::Message()
                                 << "seed " << seed << " miner "
                                 << (kind == MinerKind::kClosed ? "closed" : "eclat")
                                 << " per_class " << per_class << " cap " << cap);
                    const PipelineConfig config = CaseConfig(pc);
                    const std::vector<Pattern> want = ReferencePool(db, config);
                    ASSERT_FALSE(want.empty());
                    pooled += want.size();

                    // Train keeps the pool it mined, truncated or not.
                    PatternClassifierPipeline pipeline(config);
                    ASSERT_TRUE(pipeline
                                    .Train(db, std::make_unique<
                                                   NaiveBayesClassifier>())
                                    .ok());
                    ExpectSamePool(pipeline.candidates(), want);
                    EXPECT_EQ(pipeline.budget_report().mine_breach,
                              cap == 0 ? BudgetBreach::kNone
                                       : BudgetBreach::kPatternCap);

                    if (cap == 0) {  // the strict entry point pools the same
                        auto mined = pipeline.MineCandidates(db);
                        ASSERT_TRUE(mined.ok());
                        ExpectSamePool(*mined, want);
                    }
                }
            }
        }
    }
    EXPECT_GT(pooled, 500u);
}

TEST(CandidatePoolCertificateTest, OneMineNeverEmitsAnItemsetTwice) {
    for (const std::uint64_t seed : {2u, 5u, 11u}) {
        const auto db = RandomDb(seed, 150, 12, 2, 0.4);
        std::vector<TransactionDatabase> parts;
        parts.push_back(db);
        for (ClassLabel c = 0; c < db.num_classes(); ++c) {
            parts.push_back(db.FilterByClass(c));
        }
        for (const MinerKind kind : {MinerKind::kClosed, MinerKind::kEclat}) {
            const std::unique_ptr<Miner> miner = MakeMiner(kind);
            for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
                for (const TransactionDatabase& part : parts) {
                    MinerConfig mc;
                    mc.min_sup_rel = 0.1;
                    mc.num_threads = threads;
                    mc.split_work_threshold = 1;  // split wherever it can
                    auto mined = miner->MineBudgeted(part, mc);
                    ASSERT_TRUE(mined.ok());
                    const std::vector<Pattern>& patterns = mined->patterns;
                    ASSERT_FALSE(patterns.empty());
                    std::set<Itemset> distinct;
                    for (const Pattern& p : patterns) distinct.insert(p.items);
                    EXPECT_EQ(distinct.size(), patterns.size())
                        << "seed " << seed << " threads " << threads;
                }
            }
        }
    }
}

}  // namespace
}  // namespace dfp
