#include "ml/nb/naive_bayes.hpp"

#include <cmath>
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

ClassLabel NaiveBayesClassifier::Predict(std::span<const std::uint64_t> row) const {
    ClassLabel best = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < num_classes_; ++c) {
        double score = log_prior_[c];
        for (std::size_t f = 0; f < cols_; ++f) {
            score += RowBit(row, f) ? log_on_[c * cols_ + f] : log_off_[c * cols_ + f];
        }
        if (score > best_score) {
            best_score = score;
            best = static_cast<ClassLabel>(c);
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
