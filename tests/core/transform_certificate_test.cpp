// Certificate for the cover-based FeatureSpace::Transform and the matcher
// behind FeatureSpace::Encode: both equal the row-by-row subset-scan
// reference (testutil/reference_encoder), compared word for word, over 20 seeded
// databases × include_single_items × per_class_mining, and on the edge
// shapes (empty space, 0 rows, empty rows, row counts off the 64-row word
// grid, pattern items beyond the database's universe).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/feature_space.hpp"
#include "core/pipeline.hpp"
#include "ml/nb/naive_bayes.hpp"
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

}  // namespace
}  // namespace dfp
