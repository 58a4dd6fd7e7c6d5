// The learners' input: the paper's binary matrix over B^{d'} (Section 2).
//
// Every coordinate of the augmented space is a 0/1 indicator, and every
// column is a cover set — item i's column is the rows containing i, pattern
// p's column the rows containing p. FeatureMatrix stores exactly that: one
// packed BitVector per column, so building it from a TransactionDatabase is a
// copy of covers and per-class feature counts are popcounts.
//
// Those class counts |column f ∧ class c| are what naive Bayes trains on.
// The pipeline already holds them for every column of its training matrix
// (the database's item table, each candidate's class_counts), so the matrix
// may carry them; every other matrix gets them from ColumnClassCounts, the
// one place a matrix's columns are counted.
//
// An instance is a packed row: (cols + 63) / 64 words, bit c of the row at
// bit c % 64 of word c / 64, every bit at or past cols zero. That is the one
// row format — PackedRows (the transpose the SVM solvers and C4.5's node
// splits walk) stores rows in it, the matcher encodes a transaction into it,
// and Classifier::Predict reads it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bitvector.hpp"
#include "data/dataset.hpp"

namespace dfp {

/// Words in a packed row of `cols` features.
inline std::size_t PackedWords(std::size_t cols) { return (cols + 63) / 64; }

/// Bit c of a packed row.
inline bool RowBit(std::span<const std::uint64_t> row, std::size_t c) {
    return (row[c / 64] >> (c % 64)) & 1u;
}

/// Calls fn(column) for every set bit of a packed row, ascending.
template <typename Fn>
void ForEachRowBit(std::span<const std::uint64_t> row, Fn&& fn) {
    for (std::size_t w = 0; w < row.size(); ++w) {
        std::uint64_t bits = row[w];
        while (bits != 0) {
            fn(w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
            bits &= bits - 1;
        }
    }
}

/// Column-major 0/1 matrix: column c is the cover of feature c over the rows.
class FeatureMatrix {
  public:
    FeatureMatrix() = default;
    /// An all-zero rows × cols matrix.
    FeatureMatrix(std::size_t rows, std::size_t cols)
        : rows_(rows), columns_(cols, BitVector(rows)) {}
    /// Adopts the given covers as columns (each must have `rows` bits).
    FeatureMatrix(std::size_t rows, std::vector<BitVector> columns);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return columns_.size(); }

    /// Feature c's cover: the rows whose coordinate c is 1.
    const BitVector& Column(std::size_t c) const { return columns_[c]; }
    /// Sets a bit; drops the attached class counts, which no longer hold.
    void Set(std::size_t r, std::size_t c) {
        columns_[c].Set(r);
        class_counts_.clear();
    }
    bool Test(std::size_t r, std::size_t c) const { return columns_[c].Test(r); }

    /// Attaches the per-column class counts, counts[f · k + c] =
    /// |Column(f) ∧ class c| for k = num_classes. They are valid only against
    /// the labels the matrix is trained with; the caller vouches for that.
    void SetClassCounts(std::vector<std::size_t> counts, std::size_t num_classes) {
        class_counts_ = std::move(counts);
        count_classes_ = num_classes;
    }
    /// True when the attached counts are a full cols × num_classes table.
    bool HasClassCounts(std::size_t num_classes) const {
        return count_classes_ == num_classes &&
               class_counts_.size() == cols() * num_classes;
    }
    /// The attached counts (empty when none are); check HasClassCounts first.
    const std::vector<std::size_t>& class_counts() const { return class_counts_; }

    /// Copies the selected rows (in the given order) into a new matrix, and
    /// SelectCols the selected columns. Neither carries the class counts
    /// over: a row subset's counts differ, and the column subsets in src/ are
    /// of Transform output, which has none. A learner recounts.
    FeatureMatrix SelectRows(const std::vector<std::size_t>& rows) const;
    FeatureMatrix SelectCols(const std::vector<std::size_t>& cols) const;

  private:
    std::size_t rows_ = 0;
    std::vector<BitVector> columns_;
    std::vector<std::size_t> class_counts_;  // [f · count_classes_ + c]
    std::size_t count_classes_ = 0;
};

/// counts[f · k + c] = |x.Column(f) ∧ {r : y[r] = c}| for k = num_classes:
/// the class-count table of every column of x under labels y (each < k).
std::vector<std::size_t> ColumnClassCounts(const FeatureMatrix& x,
                                           const std::vector<ClassLabel>& y,
                                           std::size_t num_classes);

/// Row-major transpose of a FeatureMatrix: each row a packed row, with its
/// popcount cached. Dot products and squared distances of 0/1
/// rows are exact integers: |a ∧ b| and |a| + |b| − 2|a ∧ b|.
class PackedRows {
  public:
    PackedRows() = default;
    explicit PackedRows(const FeatureMatrix& x);
    /// Adopts `words` as `rows` packed rows of `cols` features.
    PackedRows(std::size_t rows, std::size_t cols, std::vector<std::uint64_t> words);

    std::size_t rows() const { return counts_.size(); }
    std::size_t cols() const { return cols_; }

    std::span<const std::uint64_t> Row(std::size_t r) const {
        return {words_.data() + r * stride_, stride_};
    }
    bool Test(std::size_t r, std::size_t c) const { return RowBit(Row(r), c); }
    /// |row r|.
    std::size_t Count(std::size_t r) const { return counts_[r]; }
    /// |row i ∧ row j|.
    std::size_t AndCount(std::size_t i, std::size_t j) const;

    /// Calls fn(column) for every set bit of row r, ascending.
    template <typename Fn>
    void ForEach(std::size_t r, Fn&& fn) const {
        ForEachRowBit(Row(r), std::forward<Fn>(fn));
    }

    /// Copies the selected rows (in the given order).
    PackedRows SelectRows(const std::vector<std::size_t>& rows) const;

  private:
    std::size_t cols_ = 0;
    std::size_t stride_ = 0;  // words per row
    std::vector<std::uint64_t> words_;
    std::vector<std::size_t> counts_;
};

}  // namespace dfp
