// Certificate for the cover-based FeatureSpace::Transform and the matcher
// behind FeatureSpace::Encode: both equal the row-by-row subset-scan
// reference (testutil/reference_encoder), compared word for word, over 20 seeded
// databases × include_single_items × per_class_mining, and on the edge
// shapes (empty space, 0 rows, empty rows, row counts off the 64-row word
// grid, pattern items beyond the database's universe). Train builds its
// learner's matrix from the covers it already holds, and that matrix must
// equal Transform of the training database for Pat_FS, Pat_All and
// significance-filtered Pat_All.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/feature_space.hpp"
#include "core/pipeline.hpp"
#include "ml/classifier.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "stats/significance.hpp"
#include "testutil/reference_encoder.hpp"

namespace dfp {
namespace {

/// Random sparse database: row lengths 0..max_len (so some rows are empty),
/// items skewed toward low ids so multi-item patterns are frequent.
TransactionDatabase RandomDb(std::uint64_t seed, std::size_t rows,
                             std::size_t num_items, std::size_t max_len = 9) {
    Rng rng(seed);
    std::vector<std::vector<ItemId>> transactions(rows);
    std::vector<ClassLabel> labels(rows);
    for (std::size_t t = 0; t < rows; ++t) {
        const std::size_t len = rng.UniformInt(max_len + 1);
        for (std::size_t k = 0; k < len; ++k) {
            const std::size_t a = rng.UniformInt(num_items);
            const std::size_t b = rng.UniformInt(num_items);
            transactions[t].push_back(static_cast<ItemId>(std::min(a, b)));
        }
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(3));
    }
    return TransactionDatabase::FromTransactions(std::move(transactions),
                                                 std::move(labels), num_items, 3);
}

Pattern P(Itemset items) {
    Pattern p;
    p.items = std::move(items);
    return p;
}

/// Column-by-column equality of Transform(db) and the scan reference, plus
/// word-for-word equality of Encode of every row against ScanEncode.
void ExpectMatchesScan(const FeatureSpace& space, const TransactionDatabase& db) {
    const FeatureMatrix got = space.Transform(db);
    const FeatureMatrix want = testutil::ScanTransform(space, db);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t c = 0; c < got.cols(); ++c) {
        ASSERT_EQ(got.Column(c), want.Column(c))
            << "Transform column " << c << " of " << got.cols();
    }
    PatternMatchIndex::Scratch scratch;
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        ASSERT_TRUE(std::ranges::equal(space.Encode(db.transaction(t), &scratch),
                                       testutil::ScanEncode(space, db.transaction(t))))
            << "Encode row " << t;
    }
}

TEST(TransformCertificateTest, EqualsRowScanOn20SeededDbs) {
    std::size_t patterns_seen = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        // 37, 66, 95, ...: row counts mostly off the 64-row word grid.
        const std::size_t rows = 37 + 29 * seed;
        const TransactionDatabase train = RandomDb(seed, rows, 24);
        const TransactionDatabase other = RandomDb(seed + 1000, rows / 2 + 5, 24);
        for (const bool single_items : {true, false}) {
            for (const bool per_class : {true, false}) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " items " +
                             std::to_string(single_items) + " per_class " +
                             std::to_string(per_class));
                PipelineConfig config;
                config.miner.min_sup_rel = 0.05;
                config.miner.max_pattern_len = 4;
                config.mmrfs.coverage_delta = 3;
                config.include_single_items = single_items;
                config.per_class_mining = per_class;
                PatternClassifierPipeline pipeline(config);
                ASSERT_TRUE(pipeline
                                .Train(train,
                                       std::make_unique<NaiveBayesClassifier>())
                                .ok());
                // The selected space, on the training rows and on rows it
                // never saw; then the whole candidate pool (Pat_All).
                const FeatureSpace& selected = pipeline.feature_space();
                ExpectMatchesScan(selected, train);
                ExpectMatchesScan(selected, other);
                const FeatureSpace pool = FeatureSpace::Build(
                    single_items ? train.num_items() : 0, pipeline.candidates());
                ExpectMatchesScan(pool, train);
                patterns_seen += selected.num_patterns() + pool.num_patterns();
            }
        }
    }
    EXPECT_GT(patterns_seen, 1000u) << "the inputs exercise too few patterns";
}

TEST(TransformCertificateTest, EdgeShapes) {
    const std::vector<Pattern> patterns = {P({0, 1}), P({1, 4}), P({0, 2, 3}),
                                           P({2, 5})};
    // Empty feature space: no items, no patterns.
    ExpectMatchesScan(FeatureSpace::Build(0, {}), RandomDb(3, 70, 6));
    // 0-row database, with and without item coordinates.
    const TransactionDatabase empty_db =
        TransactionDatabase::FromTransactions({}, {}, 6, 2);
    ExpectMatchesScan(FeatureSpace::Build(6, patterns), empty_db);
    EXPECT_EQ(FeatureSpace::Build(6, patterns).Transform(empty_db).cols(), 10u);
    ExpectMatchesScan(FeatureSpace::Build(0, patterns), empty_db);
    // Every row empty.
    ExpectMatchesScan(FeatureSpace::Build(6, patterns),
                      TransactionDatabase::FromTransactions(
                          std::vector<std::vector<ItemId>>(5), {0, 1, 0, 1, 0},
                          6, 2));
    // Row counts on and around the 64-row word boundaries.
    for (const std::size_t rows : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
        SCOPED_TRACE("rows " + std::to_string(rows));
        const TransactionDatabase db = RandomDb(rows, rows, 6, 6);
        ExpectMatchesScan(FeatureSpace::Build(6, patterns), db);
        ExpectMatchesScan(FeatureSpace::Build(0, patterns), db);
        ExpectMatchesScan(FeatureSpace::ItemsOnly(6), db);
    }
}

TEST(TransformCertificateTest, PatternBeyondDbUniverseGetsZeroColumn) {
    // The space was built over 10 items; this database has only 6, so the
    // patterns naming items 6..9 are contained in none of its rows.
    const FeatureSpace space = FeatureSpace::Build(
        10, {P({0, 1}), P({1, 7}), P({6, 9}), P({2, 3})});
    const TransactionDatabase db = RandomDb(11, 90, 6, 6);
    ExpectMatchesScan(space, db);
    const FeatureMatrix x = space.Transform(db);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        EXPECT_FALSE(x.Test(r, 10 + 1));
        EXPECT_FALSE(x.Test(r, 10 + 2));
    }
    // Items a row carries beyond the space's own item coordinates are
    // ignored there but still complete patterns.
    const FeatureSpace narrow = FeatureSpace::Build(3, {P({2, 5}), P({4, 5})});
    ExpectMatchesScan(narrow, RandomDb(12, 75, 6, 6));
}

TEST(TransformCertificateTest, EncodeCountsRepeatedItemsOnce) {
    // Sorted input with repeats: the scan reference treats {1,1} as item 1.
    const FeatureSpace space = FeatureSpace::Build(4, {P({1, 2}), P({1, 3})});
    PatternMatchIndex::Scratch scratch;
    for (const std::vector<ItemId>& txn : std::vector<std::vector<ItemId>>{
             {1, 1}, {1, 1, 2}, {1, 1, 3, 3}, {2, 2, 2}}) {
        EXPECT_TRUE(std::ranges::equal(space.Encode(txn, &scratch),
                                       testutil::ScanEncode(space, txn)));
    }
}

/// A learner that keeps a copy of the matrix it is trained on.
class RecordingLearner : public Classifier {
  public:
    explicit RecordingLearner(FeatureMatrix* seen) : seen_(seen) {}
    std::string Name() const override { return "recording"; }
    Status Train(const FeatureMatrix& x, const std::vector<ClassLabel>&,
                 std::size_t) override {
        *seen_ = x;
        return Status::Ok();
    }
    ClassLabel Predict(std::span<const std::uint64_t>) const override { return 0; }

  private:
    FeatureMatrix* seen_;
};

/// Labels follow items 0 and 1 (with 20% noise), so a chi²-BH filter keeps
/// some candidates and rejects others.
TransactionDatabase SignalDb(std::uint64_t seed, std::size_t rows) {
    Rng rng(seed);
    std::vector<std::vector<ItemId>> transactions(rows);
    std::vector<ClassLabel> labels(rows);
    for (std::size_t t = 0; t < rows; ++t) {
        for (ItemId i = 0; i < 10; ++i) {
            if (rng.Bernoulli(0.4)) transactions[t].push_back(i);
        }
        const bool has0 = !transactions[t].empty() && transactions[t][0] == 0;
        const bool has1 = std::ranges::find(transactions[t], ItemId{1}) !=
                          transactions[t].end();
        std::uint64_t y = has0 ? 0 : (has1 ? 1 : 2);
        if (rng.Bernoulli(0.2)) y = rng.UniformInt(3);
        labels[t] = static_cast<ClassLabel>(y);
    }
    return TransactionDatabase::FromTransactions(std::move(transactions),
                                                 std::move(labels), 10, 3);
}

TEST(TransformCertificateTest, TrainAdoptsTransformOfTrain) {
    enum class Mode { kPatFs, kPatAll, kPatAllFiltered };
    std::size_t filtered_out = 0;
    std::size_t pattern_columns = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const TransactionDatabase train = SignalDb(seed, 150 + 37 * seed);
        for (const Mode mode : {Mode::kPatFs, Mode::kPatAll, Mode::kPatAllFiltered}) {
            for (const bool single_items : {true, false}) {
                for (const bool fed : {false, true}) {
                    SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
                                 std::to_string(static_cast<int>(mode)) +
                                 " items " + std::to_string(single_items) +
                                 " fed " + std::to_string(fed));
                    PipelineConfig config;
                    config.miner.min_sup_rel = 0.05;
                    config.miner.max_pattern_len = 4;
                    config.include_single_items = single_items;
                    config.feature_selection = mode == Mode::kPatFs;
                    if (mode == Mode::kPatAllFiltered) {
                        config.significance.test = SigTest::kChi2;
                    }
                    PatternClassifierPipeline pipeline(config);
                    FeatureMatrix seen;
                    auto learner = std::make_unique<RecordingLearner>(&seen);
                    if (fed) {
                        // TrainWithCandidates anchors a caller-mined pool.
                        auto pool = pipeline.MineCandidates(train);
                        ASSERT_TRUE(pool.ok()) << pool.status();
                        ASSERT_TRUE(pipeline
                                        .TrainWithCandidates(
                                            train, std::move(*pool),
                                            std::move(learner))
                                        .ok());
                    } else {
                        ASSERT_TRUE(pipeline.Train(train, std::move(learner)).ok());
                    }
                    const FeatureMatrix want =
                        pipeline.feature_space().Transform(train);
                    ASSERT_EQ(seen.rows(), want.rows());
                    ASSERT_EQ(seen.cols(), want.cols());
                    for (std::size_t c = 0; c < want.cols(); ++c) {
                        ASSERT_EQ(seen.Column(c), want.Column(c)) << "column " << c;
                    }
                    // The space keeps itemsets, not covers.
                    for (const Pattern& p : pipeline.feature_space().patterns()) {
                        EXPECT_TRUE(p.cover.empty());
                    }
                    filtered_out += pipeline.stats().num_sig_rejected;
                    pattern_columns += pipeline.feature_space().num_patterns();
                }
            }
        }
    }
    EXPECT_GT(filtered_out, 0u) << "the filter never rejected a candidate";
    EXPECT_GT(pattern_columns, 500u) << "the inputs exercise too few patterns";
}

}  // namespace
}  // namespace dfp
