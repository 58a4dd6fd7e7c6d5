#include "ml/nb/naive_bayes.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <ostream>

#include "common/serialize.hpp"

namespace dfp {

Status NaiveBayesClassifier::Train(const FeatureMatrix& x,
                                   const std::vector<ClassLabel>& y,
                                   std::size_t num_classes) {
    if (x.rows() == 0) return Status::InvalidArgument("empty training set");
    DFP_RETURN_NOT_OK(ValidateTrainingInput("NB", x, y, num_classes));
    num_classes_ = num_classes;
    cols_ = x.cols();
    // on_count[f · k + c] = |cover_f ∧ class_c|: the counts x carries when it
    // has a full table (the pipeline's training matrix), else counted here.
    const bool supplied = x.HasClassCounts(num_classes);
    std::vector<std::size_t> counted;
    if (!supplied) counted = ColumnClassCounts(x, y, num_classes);
    const std::vector<std::size_t>& on_count = supplied ? x.class_counts() : counted;
    std::vector<double> class_count(num_classes, 0.0);  // exact below 2^53
    for (ClassLabel label : y) class_count[label] += 1.0;
    const double n = static_cast<double>(x.rows());
    log_prior_.assign(num_classes, 0.0);
    log_on_.assign(num_classes * cols_, 0.0);
    log_off_.assign(num_classes * cols_, 0.0);
    for (std::size_t c = 0; c < num_classes; ++c) {
        log_prior_[c] = std::log((class_count[c] + smoothing_) /
                                 (n + smoothing_ * static_cast<double>(num_classes)));
        for (std::size_t f = 0; f < cols_; ++f) {
            const double on = static_cast<double>(on_count[f * num_classes + c]);
            const double p_on = (on + smoothing_) / (class_count[c] + 2.0 * smoothing_);
            log_on_[c * cols_ + f] = std::log(p_on);
            log_off_[c * cols_ + f] = std::log(1.0 - p_on);
        }
    }
    return Status::Ok();
}

namespace {

/// `on` when `mask` is all ones, `off` when it is zero, without a branch.
double Select(std::uint64_t mask, double on, double off) {
    return std::bit_cast<double>((std::bit_cast<std::uint64_t>(on) & mask) |
                                 (std::bit_cast<std::uint64_t>(off) & ~mask));
}

/// Scores classes c0 .. c0 + L - 1 (L ≤ 4) into score[0 .. L): each class's
/// prior plus one term per feature, added in feature order, so every score
/// is bitwise the one-class-at-a-time sum. The L add chains are independent,
/// each in its own register, so they overlap in the pipeline.
template <std::size_t L>
void ScoreClasses(std::span<const std::uint64_t> row, std::size_t cols,
                  std::size_t c0, const double* log_prior, const double* log_on,
                  const double* log_off, double* score) {
    const double* on = log_on + c0 * cols;
    const double* off = log_off + c0 * cols;
    std::array<double, L> s;
    for (std::size_t l = 0; l < L; ++l) s[l] = log_prior[c0 + l];
    for (std::size_t f0 = 0; f0 < cols; f0 += 64) {
        const std::uint64_t word = row[f0 / 64];
        const std::size_t width = std::min<std::size_t>(64, cols - f0);
        for (std::size_t j = 0; j < width; ++j) {
            const std::uint64_t mask = std::uint64_t{0} - ((word >> j) & 1);
            const std::size_t f = f0 + j;
            for (std::size_t l = 0; l < L; ++l) {
                s[l] += Select(mask, on[l * cols + f], off[l * cols + f]);
            }
        }
    }
    std::copy_n(s.begin(), L, score);
}

using ScoreClassesFn = void (*)(std::span<const std::uint64_t>, std::size_t,
                                std::size_t, const double*, const double*,
                                const double*, double*);
constexpr ScoreClassesFn kScoreClasses[] = {ScoreClasses<1>, ScoreClasses<2>,
                                            ScoreClasses<3>, ScoreClasses<4>};

}  // namespace

ClassLabel NaiveBayesClassifier::Predict(std::span<const std::uint64_t> row) const {
    constexpr std::size_t kLanes = std::size(kScoreClasses);
    ClassLabel best = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t c0 = 0; c0 < num_classes_; c0 += kLanes) {
        const std::size_t lanes = std::min(kLanes, num_classes_ - c0);
        double score[kLanes];
        kScoreClasses[lanes - 1](row, cols_, c0, log_prior_.data(), log_on_.data(),
                                 log_off_.data(), score);
        // Strict > in class order: the smallest class wins a tie, and a NaN
        // score never wins.
        for (std::size_t l = 0; l < lanes; ++l) {
            if (score[l] > best_score) {
                best_score = score[l];
                best = static_cast<ClassLabel>(c0 + l);
            }
        }
    }
    return best;
}

Status NaiveBayesClassifier::SaveModel(std::ostream& out) const {
    out << "nb-model " << num_classes_ << ' ' << cols_ << ' ';
    WriteDouble(out, smoothing_);
    out << '\n';
    auto dump = [&out](const std::vector<double>& v) {
        for (double x : v) {
            WriteDouble(out, x);
            out << ' ';
        }
        out << '\n';
    };
    dump(log_prior_);
    dump(log_on_);
    dump(log_off_);
    if (!out) return Status::Internal("NB model write failed");
    return Status::Ok();
}

Status NaiveBayesClassifier::LoadModel(std::istream& in, std::size_t cols) {
    TokenReader reader(in);
    DFP_RETURN_NOT_OK(reader.Expect("nb-model"));
    DFP_RETURN_NOT_OK(reader.ReadCount(&num_classes_));
    DFP_RETURN_NOT_OK(reader.ReadCount(&cols_));
    if (cols_ != cols) {
        return Status::InvalidArgument("NB width differs from the feature space");
    }
    if (num_classes_ != 0 && cols_ > kMaxModelElements / num_classes_) {
        return Status::InvalidArgument(
            "NB parameter matrix exceeds the sanity cap");
    }
    DFP_RETURN_NOT_OK(reader.Read(&smoothing_));
    DFP_RETURN_NOT_OK(reader.ReadDoubles(num_classes_, &log_prior_));
    DFP_RETURN_NOT_OK(reader.ReadDoubles(num_classes_ * cols_, &log_on_));
    DFP_RETURN_NOT_OK(reader.ReadDoubles(num_classes_ * cols_, &log_off_));
    return Status::Ok();
}

}  // namespace dfp
