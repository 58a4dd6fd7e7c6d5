#include "ml/feature_matrix.hpp"

#include <cassert>
#include <utility>

#include "common/popcount.hpp"

namespace dfp {

FeatureMatrix::FeatureMatrix(std::size_t rows, std::vector<BitVector> columns)
    : rows_(rows), columns_(std::move(columns)) {
    for ([[maybe_unused]] const BitVector& column : columns_) {
        assert(column.size() == rows_);
    }
}

FeatureMatrix FeatureMatrix::SelectRows(const std::vector<std::size_t>& rows) const {
    FeatureMatrix out(rows.size(), cols());
    for (std::size_t c = 0; c < cols(); ++c) {
        const BitVector& src = columns_[c];
        BitVector& dst = out.columns_[c];
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (src.Test(rows[i])) dst.Set(i);
        }
    }
    return out;
}

FeatureMatrix FeatureMatrix::SelectCols(const std::vector<std::size_t>& cols) const {
    std::vector<BitVector> columns;
    columns.reserve(cols.size());
    for (std::size_t c : cols) columns.push_back(columns_[c]);
    return FeatureMatrix(rows_, std::move(columns));
}

std::vector<std::size_t> ColumnClassCounts(const FeatureMatrix& x,
                                           const std::vector<ClassLabel>& y,
                                           std::size_t num_classes) {
    assert(y.size() == x.rows());
    std::vector<BitVector> class_rows(num_classes, BitVector(x.rows()));
    for (std::size_t r = 0; r < x.rows(); ++r) class_rows[y[r]].Set(r);
    std::vector<std::size_t> counts(x.cols() * num_classes, 0);
    for (std::size_t f = 0; f < x.cols(); ++f) {
        for (std::size_t c = 0; c < num_classes; ++c) {
            counts[f * num_classes + c] = x.Column(f).AndCount(class_rows[c]);
        }
    }
    return counts;
}

PackedRows::PackedRows(const FeatureMatrix& x)
    : cols_(x.cols()),
      stride_(PackedWords(x.cols())),
      words_(x.rows() * stride_, 0),
      counts_(x.rows(), 0) {
    for (std::size_t c = 0; c < cols_; ++c) {
        const std::size_t word = c / 64;
        const std::uint64_t bit = std::uint64_t{1} << (c % 64);
        x.Column(c).ForEach([&](std::uint32_t r) {
            words_[r * stride_ + word] |= bit;
            ++counts_[r];
        });
    }
}

PackedRows::PackedRows(std::size_t rows, std::size_t cols,
                       std::vector<std::uint64_t> words)
    : cols_(cols), stride_(PackedWords(cols)), words_(std::move(words)),
      counts_(rows, 0) {
    assert(words_.size() == rows * stride_);
    for (std::size_t r = 0; r < rows; ++r) {
        counts_[r] = Popcount(words_.data() + r * stride_, stride_);
    }
}

std::size_t PackedRows::AndCount(std::size_t i, std::size_t j) const {
    return AndPopcount(words_.data() + i * stride_, words_.data() + j * stride_,
                       stride_);
}

PackedRows PackedRows::SelectRows(const std::vector<std::size_t>& rows) const {
    PackedRows out;
    out.cols_ = cols_;
    out.stride_ = stride_;
    out.words_.reserve(rows.size() * stride_);
    out.counts_.reserve(rows.size());
    for (std::size_t r : rows) {
        const auto row = Row(r);
        out.words_.insert(out.words_.end(), row.begin(), row.end());
        out.counts_.push_back(counts_[r]);
    }
    return out;
}

}  // namespace dfp
