#include "ml/svm/pegasos.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace dfp {

namespace {

/// A binary linear decision function f(x) = w·x + bias (classify by sign).
struct BinaryLinearModel {
    std::vector<double> w;
    double bias = 0.0;
    /// Breach that stopped SGD early (kNone = ran all epochs).
    BudgetBreach breach = BudgetBreach::kNone;
};

// Pegasos SGD for one one-vs-rest machine. `target_of(i)` returns the ±1
// label of row i; `rng` is shared by the machines of one classifier so the
// sampling stream stays reproducible. The budget is checked once per epoch:
// fine-grained enough for deadlines without touching the inner loop. A step
// reads and updates w only at the sampled row's set bits — the zero terms of
// the dense step add nothing — so it costs O(|x_i|), not O(d).
template <typename TargetFn>
BinaryLinearModel PegasosSgd(const PackedRows& x, TargetFn target_of,
                             const PegasosConfig& config, Rng& rng) {
    const std::size_t n = x.rows();
    const std::size_t cols = x.cols();
    BinaryLinearModel model;
    model.w.assign(cols, 0.0);
    double* w = model.w.data();
    double b = 0.0;      // bias treated as a constant-1 feature
    double scale = 1.0;  // lazy w-shrinking factor
    BudgetGuard guard(config.budget, std::numeric_limits<std::size_t>::max(),
                      /*clock_stride=*/1);
    // Start t at 2 so the first step size is 1/(2λ), not 1/λ (which would
    // zero `scale` and make the first example dominate).
    std::size_t t = 2;
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        if (guard.Check(0) != BudgetBreach::kNone) {
            model.breach = guard.breach();
            break;
        }
        for (std::size_t step = 0; step < n; ++step, ++t) {
            const std::size_t i =
                static_cast<std::size_t>(rng.UniformInt(std::uint64_t{n}));
            const double target = target_of(i);
            const double eta = 1.0 / (config.lambda * static_cast<double>(t));
            double f = b;
            x.ForEach(i, [w, &f](std::size_t d) { f += w[d]; });
            f *= scale;
            // Shrink: w ← (1 − ηλ)w, folded into the lazy scale.
            scale *= (1.0 - eta * config.lambda);
            if (scale < 1e-9) {
                for (std::size_t d = 0; d < cols; ++d) w[d] *= scale;
                b *= scale;
                scale = 1.0;
            }
            if (target * f < 1.0) {
                const double g = eta * target / scale;
                x.ForEach(i, [w, g](std::size_t d) { w[d] += g; });
                b += g;
            }
        }
    }
    for (std::size_t d = 0; d < cols; ++d) w[d] *= scale;
    model.bias = b * scale;
    return model;
}

}  // namespace

Status PegasosClassifier::Train(const FeatureMatrix& x,
                                const std::vector<ClassLabel>& y,
                                std::size_t num_classes) {
    if (x.rows() == 0) return Status::InvalidArgument("empty training set");
    DFP_RETURN_NOT_OK(ValidateTrainingInput("pegasos", x, y, num_classes));
    num_classes_ = num_classes;
    cols_ = x.cols();
    weights_.assign(num_classes * cols_, 0.0);
    bias_.assign(num_classes, 0.0);
    Rng rng(config_.seed);
    const PackedRows packed(x);

    for (std::size_t c = 0; c < num_classes; ++c) {
        const BinaryLinearModel machine = PegasosSgd(
            packed, [&y, c](std::size_t i) { return (y[i] == c) ? 1.0 : -1.0; },
            config_, rng);
        if (machine.breach == BudgetBreach::kCancelled) {
            RecordBreach("ml.pegasos", machine.breach, static_cast<double>(c));
            return Status::Cancelled("pegasos training cancelled");
        }
        if (machine.breach != BudgetBreach::kNone) {
            // Deadline: keep the truncated (still valid) iterate and push on —
            // later classes get their own epoch-0 exit immediately.
            RecordBreach("ml.pegasos", machine.breach, static_cast<double>(c));
        }
        std::copy(machine.w.begin(), machine.w.end(), &weights_[c * cols_]);
        bias_[c] = machine.bias;
    }
    return Status::Ok();
}

double PegasosClassifier::Decision(std::span<const std::uint64_t> row,
                                   ClassLabel c) const {
    const double* w = &weights_[c * cols_];
    double f = bias_[c];
    ForEachRowBit(row, [w, &f](std::size_t d) { f += w[d]; });
    return f;
}

ClassLabel PegasosClassifier::Predict(std::span<const std::uint64_t> row) const {
    ClassLabel best = 0;
    double best_f = -1e300;
    for (std::size_t c = 0; c < num_classes_; ++c) {
        const double f = Decision(row, static_cast<ClassLabel>(c));
        if (f > best_f) {
            best_f = f;
            best = static_cast<ClassLabel>(c);
        }
    }
    return best;
}


Status PegasosClassifier::SaveModel(std::ostream& out) const {
    out << "pegasos-model " << num_classes_ << ' ' << cols_ << '\n';
    for (double w : weights_) {
        WriteDouble(out, w);
        out << ' ';
    }
    out << '\n';
    for (double b : bias_) {
        WriteDouble(out, b);
        out << ' ';
    }
    out << '\n';
    if (!out) return Status::Internal("pegasos model write failed");
    return Status::Ok();
}

Status PegasosClassifier::LoadModel(std::istream& in, std::size_t cols) {
    TokenReader reader(in);
    DFP_RETURN_NOT_OK(reader.Expect("pegasos-model"));
    DFP_RETURN_NOT_OK(reader.ReadCount(&num_classes_));
    DFP_RETURN_NOT_OK(reader.ReadCount(&cols_));
    if (cols_ != cols) {
        return Status::InvalidArgument("pegasos width differs from the feature space");
    }
    if (num_classes_ != 0 && cols_ > kMaxModelElements / num_classes_) {
        return Status::InvalidArgument(
            "pegasos weight matrix exceeds the sanity cap");
    }
    DFP_RETURN_NOT_OK(reader.ReadDoubles(num_classes_ * cols_, &weights_));
    DFP_RETURN_NOT_OK(reader.ReadDoubles(num_classes_, &bias_));
    return Status::Ok();
}

}  // namespace dfp
