#include "ml/feature_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "testutil/dense_reference.hpp"

namespace dfp {
namespace {

using testutil::DenseRow;

// A seeded rows × cols 0/1 matrix, each cell set with probability `density`.
FeatureMatrix RandomMatrix(std::size_t rows, std::size_t cols, double density,
                           std::uint64_t seed) {
    Rng rng(seed);
    FeatureMatrix x(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (rng.Bernoulli(density)) x.Set(r, c);
        }
    }
    return x;
}

TEST(FeatureMatrixTest, StartsAllZero) {
    const FeatureMatrix x(7, 3);
    EXPECT_EQ(x.rows(), 7u);
    EXPECT_EQ(x.cols(), 3u);
    for (std::size_t c = 0; c < x.cols(); ++c) {
        EXPECT_EQ(x.Column(c).size(), 7u);
        EXPECT_EQ(x.Column(c).Count(), 0u);
    }
    EXPECT_EQ(DenseRow(x, 4), std::vector<double>(3, 0.0));
}

TEST(FeatureMatrixTest, SetMarksRowInColumnCover) {
    FeatureMatrix x(5, 2);
    x.Set(1, 0);
    x.Set(3, 0);
    x.Set(3, 1);
    EXPECT_EQ(x.Column(0).ToIndices(), (std::vector<std::uint32_t>{1, 3}));
    EXPECT_EQ(x.Column(1).ToIndices(), (std::vector<std::uint32_t>{3}));
    EXPECT_TRUE(x.Test(1, 0));
    EXPECT_FALSE(x.Test(1, 1));
    EXPECT_TRUE(x.Test(3, 1));
}

TEST(FeatureMatrixTest, AdoptsCoversAsColumns) {
    BitVector a(4);
    a.Set(0);
    a.Set(2);
    BitVector b(4);
    b.Set(3);
    const FeatureMatrix x(4, {a, b});
    EXPECT_EQ(x.rows(), 4u);
    ASSERT_EQ(x.cols(), 2u);
    EXPECT_EQ(x.Column(0), a);
    EXPECT_EQ(x.Column(1), b);
    EXPECT_EQ(DenseRow(x, 2), (std::vector<double>{1.0, 0.0}));
    EXPECT_EQ(DenseRow(x, 3), (std::vector<double>{0.0, 1.0}));
}

TEST(FeatureMatrixTest, SelectRowsAndCols) {
    FeatureMatrix m(2, 3);
    m.Set(0, 0);
    m.Set(0, 2);
    m.Set(1, 1);
    EXPECT_EQ(DenseRow(m, 0), (std::vector<double>{1, 0, 1}));
    const auto rows = m.SelectRows({1});
    EXPECT_EQ(rows.rows(), 1u);
    EXPECT_EQ(DenseRow(rows, 0), (std::vector<double>{0, 1, 0}));
    const auto cols = m.SelectCols({2, 0});
    EXPECT_EQ(cols.cols(), 2u);
    EXPECT_EQ(DenseRow(cols, 0), (std::vector<double>{1, 1}));
    EXPECT_EQ(DenseRow(cols, 1), (std::vector<double>{0, 0}));
}

TEST(FeatureMatrixTest, PackedRowsTransposeTheColumns) {
    // 3 rows × 70 columns, so rows span two words.
    FeatureMatrix m(3, 70);
    for (std::size_t c : {0, 5, 64, 69}) m.Set(0, c);
    for (std::size_t c : {5, 63, 64}) m.Set(1, c);
    const PackedRows packed(m);
    ASSERT_EQ(packed.rows(), 3u);
    ASSERT_EQ(packed.cols(), 70u);
    EXPECT_EQ(packed.Count(0), 4u);
    EXPECT_EQ(packed.Count(1), 3u);
    EXPECT_EQ(packed.Count(2), 0u);
    EXPECT_EQ(packed.AndCount(0, 1), 2u);  // columns 5 and 64
    EXPECT_EQ(packed.AndCount(0, 2), 0u);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(DenseRow(packed.Row(r), 70), DenseRow(m, r)) << "row " << r;
        for (std::size_t c = 0; c < 70; ++c) {
            EXPECT_EQ(packed.Test(r, c), m.Test(r, c));
        }
    }
    std::vector<std::size_t> seen;
    packed.ForEach(1, [&seen](std::size_t c) { seen.push_back(c); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{5, 63, 64}));
    const PackedRows picked = packed.SelectRows({1, 0});
    EXPECT_EQ(DenseRow(picked.Row(0), 70), DenseRow(m, 1));
    EXPECT_EQ(DenseRow(picked.Row(1), 70), DenseRow(m, 0));
    EXPECT_EQ(picked.Count(1), 4u);
}

TEST(FeatureMatrixTest, SelectRowsFollowsGivenOrder) {
    // Repeated and reordered picks; 140 rows put the covers on three words.
    const FeatureMatrix x = RandomMatrix(140, 70, 0.3, 11);
    const std::vector<std::size_t> pick = {139, 0, 64, 64, 63, 5};
    const FeatureMatrix sub = x.SelectRows(pick);
    ASSERT_EQ(sub.rows(), pick.size());
    ASSERT_EQ(sub.cols(), x.cols());
    for (std::size_t i = 0; i < pick.size(); ++i) {
        EXPECT_EQ(DenseRow(sub, i), DenseRow(x, pick[i])) << "row " << i;
    }
}

TEST(FeatureMatrixTest, SelectColsCopiesCovers) {
    // A column may be picked twice; each pick is a full copy of its cover.
    const FeatureMatrix x = RandomMatrix(130, 9, 0.4, 12);
    const std::vector<std::size_t> pick = {8, 2, 2};
    const FeatureMatrix sub = x.SelectCols(pick);
    EXPECT_EQ(sub.rows(), x.rows());
    ASSERT_EQ(sub.cols(), pick.size());
    for (std::size_t i = 0; i < pick.size(); ++i) {
        EXPECT_EQ(sub.Column(i), x.Column(pick[i])) << "col " << i;
    }
}

// Seeded labels in [0, k) for `rows` rows.
std::vector<ClassLabel> RandomLabels(std::size_t rows, std::size_t k,
                                     std::uint64_t seed) {
    Rng rng(seed);
    std::vector<ClassLabel> y(rows);
    for (ClassLabel& label : y) label = static_cast<ClassLabel>(rng.UniformInt(k));
    return y;
}

TEST(FeatureMatrixTest, ColumnClassCountsAreCoverClassCounts) {
    const FeatureMatrix x = RandomMatrix(150, 7, 0.4, 13);
    const std::vector<ClassLabel> y = RandomLabels(x.rows(), 3, 14);
    const std::vector<std::size_t> counts = ColumnClassCounts(x, y, 3);
    ASSERT_EQ(counts.size(), x.cols() * 3);
    for (std::size_t f = 0; f < x.cols(); ++f) {
        for (ClassLabel c = 0; c < 3; ++c) {
            std::size_t want = 0;
            for (std::size_t r = 0; r < x.rows(); ++r) {
                want += (x.Test(r, f) && y[r] == c) ? 1 : 0;
            }
            EXPECT_EQ(counts[f * 3 + c], want) << "col " << f << " class " << c;
        }
    }
}

TEST(FeatureMatrixTest, SelectionsDropClassCounts) {
    FeatureMatrix x = RandomMatrix(140, 5, 0.3, 15);
    const std::vector<ClassLabel> y = RandomLabels(x.rows(), 2, 16);
    x.SetClassCounts(ColumnClassCounts(x, y, 2), 2);
    ASSERT_TRUE(x.HasClassCounts(2));
    const FeatureMatrix some_rows = x.SelectRows({0, 1, 2, 3});
    EXPECT_FALSE(some_rows.HasClassCounts(2));
    EXPECT_TRUE(some_rows.class_counts().empty());
    const FeatureMatrix some_cols = x.SelectCols({4, 1, 1});
    EXPECT_FALSE(some_cols.HasClassCounts(2));
    EXPECT_TRUE(some_cols.class_counts().empty());
}

TEST(FeatureMatrixTest, SetDropsClassCounts) {
    FeatureMatrix x = RandomMatrix(70, 3, 0.5, 19);
    const std::vector<ClassLabel> y = RandomLabels(x.rows(), 2, 20);
    x.SetClassCounts(ColumnClassCounts(x, y, 2), 2);
    ASSERT_TRUE(x.HasClassCounts(2));
    x.Set(0, 0);
    EXPECT_FALSE(x.HasClassCounts(2));
}

TEST(PackedRowsTest, TransposesColumnsAcrossWordBoundaries) {
    // 130 columns span three 64-bit words per row.
    const FeatureMatrix x = RandomMatrix(25, 130, 0.2, 13);
    const PackedRows rows(x);
    ASSERT_EQ(rows.rows(), x.rows());
    ASSERT_EQ(rows.cols(), x.cols());
    EXPECT_EQ(rows.Row(0).size(), 3u);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
            ASSERT_EQ(rows.Test(r, c), x.Test(r, c)) << r << "," << c;
        }
        EXPECT_EQ(DenseRow(rows.Row(r), x.cols()), DenseRow(x, r)) << "row " << r;
        std::vector<std::size_t> seen;
        rows.ForEach(r, [&seen](std::size_t c) { seen.push_back(c); });
        std::vector<std::size_t> expected;
        for (std::size_t c = 0; c < x.cols(); ++c) {
            if (x.Test(r, c)) expected.push_back(c);
        }
        EXPECT_EQ(seen, expected) << "row " << r;
    }
}

TEST(PackedRowsTest, CountAndAndCountAreExactDenseProducts) {
    const FeatureMatrix x = RandomMatrix(20, 100, 0.35, 14);
    const PackedRows rows(x);
    for (std::size_t i = 0; i < x.rows(); ++i) {
        const std::vector<double> a = DenseRow(x, i);
        double self = 0.0;
        for (double v : a) self += v * v;
        EXPECT_EQ(static_cast<double>(rows.Count(i)), self);
        for (std::size_t j = 0; j < x.rows(); ++j) {
            const std::vector<double> b = DenseRow(x, j);
            double dot = 0.0;
            double dist = 0.0;
            for (std::size_t c = 0; c < a.size(); ++c) {
                dot += a[c] * b[c];
                dist += (a[c] - b[c]) * (a[c] - b[c]);
            }
            const std::size_t and_count = rows.AndCount(i, j);
            EXPECT_EQ(static_cast<double>(and_count), dot) << i << "," << j;
            // The squared-distance identity the RBF kernel relies on.
            EXPECT_EQ(static_cast<double>(rows.Count(i) + rows.Count(j) - 2 * and_count),
                      dist)
                << i << "," << j;
        }
    }
}

TEST(PackedRowsTest, SelectRowsKeepsWordsAndCounts) {
    const FeatureMatrix x = RandomMatrix(30, 80, 0.25, 15);
    const PackedRows rows(x);
    const std::vector<std::size_t> pick = {29, 3, 3, 0};
    const PackedRows sub = rows.SelectRows(pick);
    ASSERT_EQ(sub.rows(), pick.size());
    EXPECT_EQ(sub.cols(), rows.cols());
    for (std::size_t i = 0; i < pick.size(); ++i) {
        EXPECT_EQ(sub.Count(i), rows.Count(pick[i]));
        EXPECT_TRUE(std::ranges::equal(sub.Row(i), rows.Row(pick[i])));
    }
    // Selecting packed rows equals packing the selected matrix rows.
    const PackedRows repacked(x.SelectRows(pick));
    for (std::size_t i = 0; i < pick.size(); ++i) {
        EXPECT_TRUE(std::equal(sub.Row(i).begin(), sub.Row(i).end(),
                               repacked.Row(i).begin(), repacked.Row(i).end()));
    }
}

TEST(PackedRowsTest, ZeroColumnsGiveEmptyRows) {
    const FeatureMatrix x(3, 0);
    const PackedRows rows(x);
    EXPECT_EQ(rows.rows(), 3u);
    EXPECT_EQ(rows.cols(), 0u);
    EXPECT_TRUE(rows.Row(2).empty());
    EXPECT_EQ(rows.Count(2), 0u);
    EXPECT_EQ(rows.AndCount(0, 1), 0u);
}

TEST(PackedRowsTest, AdoptsWordsAndCountsThem) {
    // Two rows of 65 features: two words each.
    std::vector<std::uint64_t> words = {0b1011, 1, 0, 0};
    const PackedRows rows(2, 65, words);
    ASSERT_EQ(rows.rows(), 2u);
    EXPECT_EQ(rows.cols(), 65u);
    EXPECT_EQ(rows.Count(0), 4u);
    EXPECT_EQ(rows.Count(1), 0u);
    EXPECT_TRUE(rows.Test(0, 64));
    EXPECT_TRUE(std::ranges::equal(rows.Row(0), std::span(words).first(2)));
    EXPECT_EQ(PackedRows(0, 65, {}).rows(), 0u);
}

TEST(PackedRowTest, RowBitAndForEachRowBitReadTheLayout) {
    // Bit c lives at bit c % 64 of word c / 64.
    const std::vector<std::uint64_t> row = {(std::uint64_t{1} << 63) | 1u, 0b100};
    EXPECT_EQ(PackedWords(0), 0u);
    EXPECT_EQ(PackedWords(64), 1u);
    EXPECT_EQ(PackedWords(65), 2u);
    for (std::size_t c = 0; c < 128; ++c) {
        EXPECT_EQ(RowBit(row, c), c == 0 || c == 63 || c == 66) << c;
    }
    std::vector<std::size_t> seen;
    ForEachRowBit(row, [&seen](std::size_t c) { seen.push_back(c); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 63, 66}));
}

}  // namespace
}  // namespace dfp
