#include "ml/svm/svm.hpp"

#include <algorithm>
#include <memory>
#include <ostream>

#include "common/parallel.hpp"
#include "common/serialize.hpp"
#include "common/string_util.hpp"

namespace dfp {

std::string SvmClassifier::Name() const {
    return StrFormat("svm-%s(C=%g)", KernelName(config_.kernel).c_str(), config_.c);
}

Status SvmClassifier::Train(const FeatureMatrix& x, const std::vector<ClassLabel>& y,
                            std::size_t num_classes) {
    if (num_classes < 2) {
        return Status::InvalidArgument("SVM needs at least two classes");
    }
    DFP_RETURN_NOT_OK(ValidateTrainingInput("SVM", x, y, num_classes));
    machines_.clear();
    num_classes_ = num_classes;

    std::vector<std::pair<ClassLabel, ClassLabel>> pairs;
    for (ClassLabel a = 0; a < num_classes; ++a) {
        for (ClassLabel b = a + 1; b < num_classes; ++b) pairs.emplace_back(a, b);
    }

    // One deadline shared by every pairwise solve: each pair gets whatever
    // wall-clock remains, instead of a fresh full window.
    DeadlineTimer timer(config_.budget.time_budget_ms);

    // One slot per class pair; slots are merged into machines_ in pair order
    // afterwards, so the trained model is identical for every thread count
    // (each binary solve is independent and deterministic given its inputs).
    struct PairSlot {
        bool present = false;
        PairModel pm;
        Status status = Status::Ok();
    };
    std::vector<PairSlot> slots(pairs.size());
    // Every pair's solve reads its rows from one transpose of the covers.
    const PackedRows packed(x);

    auto solve_pair = [&](std::size_t idx) {
        const auto [a, b] = pairs[idx];
        PairSlot& slot = slots[idx];
        std::vector<std::size_t> rows;
        std::vector<int> labels;
        for (std::size_t r = 0; r < x.rows(); ++r) {
            if (y[r] == a) {
                rows.push_back(r);
                labels.push_back(+1);
            } else if (y[r] == b) {
                rows.push_back(r);
                labels.push_back(-1);
            }
        }
        if (rows.empty()) return;
        // A pair with only one class present degenerates; vote by majority.
        const bool has_pos = std::count(labels.begin(), labels.end(), 1) > 0;
        const bool has_neg = std::count(labels.begin(), labels.end(), -1) > 0;
        if (!has_pos || !has_neg) {
            slot.present = true;
            slot.pm.positive = a;
            slot.pm.negative = b;
            slot.pm.model.bias = has_pos ? 1.0 : -1.0;  // constant decision
            return;
        }
        const PackedRows sub = packed.SelectRows(rows);
        SmoConfig pair_config = config_;
        pair_config.budget.time_budget_ms = timer.remaining_ms();
        // Pair solves can run concurrently; split the kernel-row cache
        // budget so peak memory stays within the configured bound. Cached
        // rows equal direct evaluation bit for bit, so the capacity split
        // does not change the trained model.
        const std::size_t workers = std::max<std::size_t>(
            1, std::min(ResolveNumThreads(config_.num_threads), pairs.size()));
        pair_config.cache_bytes = config_.cache_bytes / workers;
        auto trained = TrainSmo(sub, labels, pair_config);
        if (!trained.ok()) {
            slot.status = trained.status();
            return;
        }
        SmoModel model = std::move(trained).value();
        if (model.breach == BudgetBreach::kCancelled) {
            RecordBreach("ml.svm", model.breach, static_cast<double>(idx));
            slot.status = Status::Cancelled("SVM training cancelled");
            return;
        }
        if (model.breach != BudgetBreach::kNone) {
            // Deadline/memory breach: keep the partial SMO iterate (it is
            // a valid, if suboptimal, decision function).
            RecordBreach("ml.svm", model.breach, static_cast<double>(idx));
        } else if (!model.converged) {
            // max_steps exhausted before the violation fell below tol: the
            // iterate is kept too, and the event is recorded.
            GuardLog::Get().Record("ml.svm", "smo_nonconverged",
                                   static_cast<double>(model.iterations));
        }
        slot.present = true;
        slot.pm.positive = a;
        slot.pm.negative = b;
        slot.pm.model = std::move(model);
    };

    const std::size_t threads =
        std::min(ResolveNumThreads(config_.num_threads), pairs.size());
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ParallelFor(pool.get(), pairs.size(), [&](std::size_t begin, std::size_t end) {
        // A chunk stops at its first failing pair: every pair before the
        // first failure in pair order still runs, so that failure is found.
        for (std::size_t idx = begin; idx < end; ++idx) {
            solve_pair(idx);
            if (!slots[idx].status.ok()) return;
        }
    });
    // Deterministic error surfacing: the first failing pair in pair order.
    for (const PairSlot& slot : slots) {
        if (!slot.status.ok()) return slot.status;
    }

    for (PairSlot& slot : slots) {
        if (slot.present) machines_.push_back(std::move(slot.pm));
    }
    if (machines_.empty()) {
        return Status::FailedPrecondition("no class pair had training data");
    }
    return Status::Ok();
}

ClassLabel SvmClassifier::Predict(std::span<const std::uint64_t> row) const {
    std::vector<double> votes(num_classes_, 0.0);
    std::vector<double> margins(num_classes_, 0.0);
    for (const PairModel& pm : machines_) {
        // A degenerate machine (no SVs, no w) decides by its bias alone.
        const double f = pm.model.Decision(row);
        if (f >= 0.0) {
            votes[pm.positive] += 1.0;
        } else {
            votes[pm.negative] += 1.0;
        }
        margins[pm.positive] += f;
        margins[pm.negative] -= f;
    }
    std::size_t best = 0;
    for (std::size_t c = 1; c < num_classes_; ++c) {
        if (votes[c] > votes[best] ||
            (votes[c] == votes[best] && margins[c] > margins[best])) {
            best = c;
        }
    }
    return static_cast<ClassLabel>(best);
}

Status SvmClassifier::SaveModel(std::ostream& out) const {
    out << "svm-model " << static_cast<int>(config_.kernel.type) << ' ';
    WriteDouble(out, config_.kernel.gamma);
    out << ' ';
    WriteDouble(out, config_.kernel.coef0);
    out << ' ' << config_.kernel.degree << ' ';
    WriteDouble(out, config_.c);
    out << ' ' << num_classes_ << ' ' << machines_.size() << '\n';
    for (const PairModel& pm : machines_) {
        out << pm.positive << ' ' << pm.negative << ' ';
        WriteDouble(out, pm.model.bias);
        out << ' ' << pm.model.w.size() << ' ';
        for (double w : pm.model.w) {
            WriteDouble(out, w);
            out << ' ';
        }
        // Each SV entry is written as the double 0 or 1.
        const PackedRows& sv = pm.model.sv;
        const std::size_t dim = sv.rows() == 0 ? 0 : sv.cols();
        out << sv.rows() << ' ' << dim << '\n';
        for (std::size_t i = 0; i < sv.rows(); ++i) {
            WriteDouble(out, pm.model.sv_coef[i]);
            out << ' ';
            for (std::size_t c = 0; c < dim; ++c) {
                WriteDouble(out, sv.Test(i, c) ? 1.0 : 0.0);
                out << ' ';
            }
            out << '\n';
        }
    }
    if (!out) return Status::Internal("SVM model write failed");
    return Status::Ok();
}

Status SvmClassifier::LoadModel(std::istream& in, std::size_t cols) {
    TokenReader reader(in);
    DFP_RETURN_NOT_OK(reader.Expect("svm-model"));
    std::int32_t kernel_type = 0;
    DFP_RETURN_NOT_OK(reader.Read(&kernel_type));
    if (kernel_type < 0 || kernel_type > 2) {
        return Status::ParseError("unknown kernel type in SVM model");
    }
    config_.kernel.type = static_cast<KernelType>(kernel_type);
    DFP_RETURN_NOT_OK(reader.Read(&config_.kernel.gamma));
    DFP_RETURN_NOT_OK(reader.Read(&config_.kernel.coef0));
    DFP_RETURN_NOT_OK(reader.Read(&config_.kernel.degree));
    DFP_RETURN_NOT_OK(reader.Read(&config_.c));
    DFP_RETURN_NOT_OK(reader.ReadCount(&num_classes_));
    std::size_t machine_count = 0;
    DFP_RETURN_NOT_OK(reader.ReadCount(&machine_count));
    machines_.assign(machine_count, PairModel{});
    for (PairModel& pm : machines_) {
        DFP_RETURN_NOT_OK(reader.Read(&pm.positive));
        DFP_RETURN_NOT_OK(reader.Read(&pm.negative));
        if (pm.positive >= num_classes_ || pm.negative >= num_classes_) {
            return Status::InvalidArgument("SVM machine class out of range");
        }
        DFP_RETURN_NOT_OK(reader.Read(&pm.model.bias));
        std::size_t w_size = 0;
        DFP_RETURN_NOT_OK(reader.ReadCount(&w_size));
        DFP_RETURN_NOT_OK(reader.ReadDoubles(w_size, &pm.model.w));
        std::size_t sv_count = 0;
        std::size_t dim = 0;
        DFP_RETURN_NOT_OK(reader.ReadCount(&sv_count));
        DFP_RETURN_NOT_OK(reader.ReadCount(&dim));
        if (sv_count != 0 && dim > kMaxModelElements / sv_count) {
            return Status::InvalidArgument(
                "SVM support-vector matrix exceeds the sanity cap");
        }
        if ((w_size != 0 && w_size != cols) || (sv_count != 0 && dim != cols)) {
            return Status::InvalidArgument("SVM width differs from the feature space");
        }
        pm.model.kernel = config_.kernel;
        pm.model.sv_coef.resize(sv_count);
        const std::size_t stride = PackedWords(dim);
        std::vector<std::uint64_t> words(sv_count * stride, 0);
        for (std::size_t i = 0; i < sv_count; ++i) {
            DFP_RETURN_NOT_OK(reader.Read(&pm.model.sv_coef[i]));
            for (std::size_t c = 0; c < dim; ++c) {
                double entry = 0.0;
                DFP_RETURN_NOT_OK(reader.Read(&entry));
                if (entry == 1.0) {
                    words[i * stride + c / 64] |= std::uint64_t{1} << (c % 64);
                } else if (entry != 0.0) {
                    return Status::InvalidArgument(
                        "SVM support-vector entry is not 0 or 1");
                }
            }
        }
        pm.model.sv = PackedRows(sv_count, dim, std::move(words));
    }
    return Status::Ok();
}

}  // namespace dfp
