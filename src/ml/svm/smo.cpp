#include "ml/svm/smo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/popcount.hpp"
#include "obs/metrics.hpp"

namespace dfp {

namespace {

// Bounded LRU cache of full kernel rows, the solver's one source of kernel
// values off the diagonal. Rows live in one preallocated slab; the LRU list
// is intrusive (prev/next slot arrays), so a hit is a map lookup plus a list
// splice — no allocation anywhere after Init(). Capacity is at least two so
// the working pair of an update is always co-resident; Get() additionally
// takes the partner row as `pinned` and never evicts it.
class KernelRowCache {
  public:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    void Init(std::size_t n, std::size_t cache_bytes) {
        n_ = n;
        const std::size_t row_bytes = n * sizeof(double);
        capacity_ = std::min(n, std::max<std::size_t>(2, cache_bytes / row_bytes));
        slab_.assign(capacity_ * n, 0.0);
        slot_of_.assign(n, kNone);
        row_of_.assign(capacity_, kNone);
        prev_.assign(capacity_, kNone);
        next_.assign(capacity_, kNone);
    }

    /// Returns row i (values K(x_i, x_j) for all j), filling via `fill(i,
    /// out)` on a miss. `pinned` is a row index that must survive eviction
    /// (kNone when unconstrained).
    template <typename FillFn>
    const double* Get(std::size_t i, std::size_t pinned, FillFn&& fill) {
        std::size_t s = slot_of_[i];
        if (s != kNone) {
            ++hits_;
            MoveToFront(s);
            return &slab_[s * n_];
        }
        ++misses_;
        if (used_ < capacity_) {
            s = used_++;
        } else {
            s = tail_;  // least recently used
            if (row_of_[s] == pinned) s = prev_[s];  // capacity ≥ 2
            Unlink(s);
            slot_of_[row_of_[s]] = kNone;
            ++evictions_;
        }
        row_of_[s] = i;
        slot_of_[i] = s;
        PushFront(s);
        double* row = &slab_[s * n_];
        fill(i, row);
        return row;
    }

    std::size_t resident_rows() const { return used_; }
    std::size_t hits() const { return hits_; }
    std::size_t misses() const { return misses_; }
    std::size_t evictions() const { return evictions_; }

  private:
    void Unlink(std::size_t s) {
        if (prev_[s] != kNone) next_[prev_[s]] = next_[s];
        else head_ = next_[s];
        if (next_[s] != kNone) prev_[next_[s]] = prev_[s];
        else tail_ = prev_[s];
    }
    void PushFront(std::size_t s) {
        prev_[s] = kNone;
        next_[s] = head_;
        if (head_ != kNone) prev_[head_] = s;
        head_ = s;
        if (tail_ == kNone) tail_ = s;
    }
    void MoveToFront(std::size_t s) {
        if (s == head_) return;
        Unlink(s);
        PushFront(s);
    }

    std::size_t n_ = 0;
    std::size_t capacity_ = 0;
    std::size_t used_ = 0;
    std::vector<double> slab_;
    std::vector<std::size_t> slot_of_;  // row index → slot (kNone = absent)
    std::vector<std::size_t> row_of_;   // slot → row index
    std::vector<std::size_t> prev_;
    std::vector<std::size_t> next_;
    std::size_t head_ = kNone;
    std::size_t tail_ = kNone;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::size_t evictions_ = 0;
};

// τ of Fan, Chen & Lin: the curvature taken for a pair whose
// η = K_ii + K_jj − 2K_ij is not positive (duplicate rows, or a kernel that
// is not positive definite on the pair), so every step still decreases the
// objective.
constexpr double kTau = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

// LIBSVM's dual solver. It keeps the gradient G = Qα − e of the objective for
// every row (α = 0, G = −1 at the start). Each iteration picks the working
// pair by WSS2, stops when the maximal violation is below tol, and otherwise
// takes the clipped two-variable step and adds the pair's two kernel rows
// into G.
class SmoSolver {
  public:
    SmoSolver(const PackedRows& x, const std::vector<int>& y,
              const SmoConfig& config)
        : x_(x),
          config_(config),
          n_(x.rows()),
          y_(y.begin(), y.end()),
          alpha_(n_, 0.0),
          grad_(n_, -1.0),
          diag_(n_) {
        cache_.Init(n_, config_.cache_bytes);
        for (std::size_t i = 0; i < n_; ++i) diag_[i] = KernelOf(i, i);
        kernel_evals_ += n_;
    }

    SmoModel Solve() {
        // One check per iteration: each costs O(n), so the clock is read
        // every time (a deadline is noticed within one iteration).
        BudgetGuard guard(config_.budget, std::numeric_limits<std::size_t>::max(),
                          /*clock_stride=*/1);
        bool converged = false;
        while (true) {
            std::size_t i = 0;
            std::size_t j = 0;
            const double* row_i = nullptr;
            if (!SelectWorkingSet(&i, &j, &row_i)) {
                converged = true;
                break;
            }
            if (steps_ >= config_.max_steps ||
                guard.Check(0) != BudgetBreach::kNone) {
                break;
            }
            Update(i, j, row_i);
            ++steps_;
        }
        FlushMetrics();
        SmoModel model = BuildModel();
        model.converged = converged;
        model.breach = guard.breach();
        return model;
    }

  private:
    // K(x_i, x_j) from the packed rows' overlap popcount.
    double KernelOf(std::size_t i, std::size_t j) const {
        return BinaryKernelEval(config_.kernel, x_.AndCount(i, j), x_.Count(i),
                                x_.Count(j));
    }

    // Kernel row i through the LRU cache; `pinned` stays resident.
    const double* Row(std::size_t i, std::size_t pinned) {
        return cache_.Get(i, pinned, [this](std::size_t r, double* out) {
            for (std::size_t j = 0; j < n_; ++j) out[j] = KernelOf(r, j);
            kernel_evals_ += n_;
        });
    }

    bool AtUpper(std::size_t t) const { return alpha_[t] >= config_.c; }
    bool AtLower(std::size_t t) const { return alpha_[t] <= 0.0; }
    // I_up: α_t can move so that y_t·α_t grows; I_low: so that it shrinks.
    bool InUp(std::size_t t) const {
        return y_[t] > 0.0 ? !AtUpper(t) : !AtLower(t);
    }
    bool InLow(std::size_t t) const {
        return y_[t] > 0.0 ? !AtLower(t) : !AtUpper(t);
    }

    // WSS2: i = argmax_{t ∈ I_up} −y_t G_t (that maximum is m(α)); j
    // minimizes −b²/a over t ∈ I_low with b = m(α) + y_t G_t > 0 and
    // a = η_it (τ when η_it ≤ 0). Both scans break ties toward the higher
    // index (`>=` / `<=`, as LIBSVM does), so the pair depends only on the
    // iterate. Returns false when m(α) − M(α) < tol, M(α) = min_{I_low}
    // −y_t G_t: the KKT conditions hold to tol.
    bool SelectWorkingSet(std::size_t* out_i, std::size_t* out_j,
                          const double** out_row_i) {
        double gmax = -kInf;
        std::size_t i = KernelRowCache::kNone;
        for (std::size_t t = 0; t < n_; ++t) {
            if (!InUp(t)) continue;
            const double v = -y_[t] * grad_[t];
            if (v >= gmax) {
                gmax = v;
                i = t;
            }
        }
        if (i == KernelRowCache::kNone) return false;
        const double* row_i = Row(i, KernelRowCache::kNone);
        double gmax2 = -kInf;  // −M(α)
        double best_gain = kInf;
        std::size_t j = KernelRowCache::kNone;
        for (std::size_t t = 0; t < n_; ++t) {
            if (!InLow(t)) continue;
            const double yg = y_[t] * grad_[t];
            gmax2 = std::max(gmax2, yg);
            const double b = gmax + yg;
            if (b <= 0.0) continue;
            double a = diag_[i] + diag_[t] - 2.0 * row_i[t];
            if (a <= 0.0) a = kTau;
            const double gain = -(b * b) / a;
            if (gain <= best_gain) {
                best_gain = gain;
                j = t;
            }
        }
        if (gmax + gmax2 < config_.tol || j == KernelRowCache::kNone) return false;
        *out_i = i;
        *out_j = j;
        *out_row_i = row_i;
        return true;
    }

    // LIBSVM's analytic step on (α_i, α_j), clipped to the box along the
    // line y_i α_i + y_j α_j = const, then G += Q_i Δα_i + Q_j Δα_j.
    void Update(std::size_t i, std::size_t j, const double* row_i) {
        const double* row_j = Row(j, i);
        const double c = config_.c;
        const double old_i = alpha_[i];
        const double old_j = alpha_[j];
        double a = diag_[i] + diag_[j] - 2.0 * row_i[j];
        if (a <= 0.0) a = kTau;
        double& ai = alpha_[i];
        double& aj = alpha_[j];
        if (y_[i] != y_[j]) {
            const double delta = (-grad_[i] - grad_[j]) / a;
            const double diff = ai - aj;
            ai += delta;
            aj += delta;
            if (diff > 0.0) {
                if (aj < 0.0) {
                    aj = 0.0;
                    ai = diff;
                }
                if (ai > c) {
                    ai = c;
                    aj = c - diff;
                }
            } else {
                if (ai < 0.0) {
                    ai = 0.0;
                    aj = -diff;
                }
                if (aj > c) {
                    aj = c;
                    ai = c + diff;
                }
            }
        } else {
            const double delta = (grad_[i] - grad_[j]) / a;
            const double sum = ai + aj;
            ai -= delta;
            aj += delta;
            if (sum > c) {
                if (ai > c) {
                    ai = c;
                    aj = sum - c;
                }
                if (aj > c) {
                    aj = c;
                    ai = sum - c;
                }
            } else {
                if (aj < 0.0) {
                    aj = 0.0;
                    ai = sum;
                }
                if (ai < 0.0) {
                    ai = 0.0;
                    aj = sum;
                }
            }
        }
        // Q_tk Δα_t = y_k · (y_t Δα_t) · K_tk.
        const double di = y_[i] * (ai - old_i);
        const double dj = y_[j] * (aj - old_j);
        for (std::size_t k = 0; k < n_; ++k) {
            grad_[k] += y_[k] * (di * row_i[k] + dj * row_j[k]);
        }
    }

    // ρ is the mean of y·G over the free α; with none free, the midpoint of
    // the interval the bound α leave for it. f(x) = Σ α_i y_i K(x_i, x) − ρ.
    double Rho() const {
        double ub = kInf;
        double lb = -kInf;
        double sum_free = 0.0;
        std::size_t free = 0;
        for (std::size_t t = 0; t < n_; ++t) {
            const double yg = y_[t] * grad_[t];
            if (AtUpper(t) || AtLower(t)) {
                // A bound α_t whose y_t·α_t may only grow caps ρ from above.
                if (InUp(t)) {
                    ub = std::min(ub, yg);
                } else {
                    lb = std::max(lb, yg);
                }
            } else {
                ++free;
                sum_free += yg;
            }
        }
        if (free > 0) return sum_free / static_cast<double>(free);
        // One class only (nothing to separate): the finite side alone.
        if (ub == kInf) return lb;
        if (lb == -kInf) return ub;
        return 0.5 * (ub + lb);
    }

    // One registry flush per Solve(); the per-call tallies keep the inner
    // loops free of atomics.
    void FlushMetrics() const {
        auto& registry = obs::Registry::Get();
        static auto& steps_c = registry.GetCounter("dfp.ml.smo.take_steps");
        static auto& kern_c = registry.GetCounter("dfp.ml.smo.kernel_evals");
        static auto& solves_c = registry.GetCounter("dfp.ml.smo.solves");
        static auto& row_hits = registry.GetCounter("dfp.svm.cache.hits");
        static auto& row_misses = registry.GetCounter("dfp.svm.cache.misses");
        static auto& row_evict = registry.GetCounter("dfp.svm.cache.evictions");
        static auto& rows_g = registry.GetGauge("dfp.svm.cache.rows");
        steps_c.Inc(steps_);
        kern_c.Inc(kernel_evals_);
        solves_c.Inc();
        row_hits.Inc(cache_.hits());
        row_misses.Inc(cache_.misses());
        row_evict.Inc(cache_.evictions());
        rows_g.Set(static_cast<double>(cache_.resident_rows()));
    }

    SmoModel BuildModel() const {
        SmoModel model;
        model.kernel = config_.kernel;
        model.bias = -Rho();
        model.alpha = alpha_;
        model.iterations = steps_;
        const bool linear = config_.kernel.type == KernelType::kLinear;
        if (linear) model.w.assign(x_.cols(), 0.0);
        std::vector<std::size_t> sv_rows;
        for (std::size_t i = 0; i < n_; ++i) {
            if (alpha_[i] <= 0.0) continue;
            const double coef = alpha_[i] * y_[i];
            model.sv_coef.push_back(coef);
            sv_rows.push_back(i);
            // w = Σ α_i y_i x_i, added over each row's set bits.
            if (linear) x_.ForEach(i, [&model, coef](std::size_t d) { model.w[d] += coef; });
        }
        model.sv = x_.SelectRows(sv_rows);
        return model;
    }

    const PackedRows& x_;
    const SmoConfig& config_;
    std::size_t n_;
    std::vector<double> y_;  // ±1 as doubles, for the gradient arithmetic
    std::vector<double> alpha_;
    std::vector<double> grad_;
    std::vector<double> diag_;  // K(x_i, x_i)
    KernelRowCache cache_;
    std::size_t steps_ = 0;
    std::size_t kernel_evals_ = 0;
};

}  // namespace

double SmoModel::Decision(std::span<const std::uint64_t> row) const {
    if (!w.empty()) {
        double dot = 0.0;
        ForEachRowBit(row, [this, &dot](std::size_t d) { dot += w[d]; });
        return dot + bias;
    }
    const std::size_t count = Popcount(row.data(), row.size());
    double f = bias;
    for (std::size_t i = 0; i < sv.rows(); ++i) {
        const std::size_t dot = AndPopcount(sv.Row(i).data(), row.data(), row.size());
        f += sv_coef[i] * BinaryKernelEval(kernel, dot, sv.Count(i), count);
    }
    return f;
}

Result<SmoModel> TrainSmo(const PackedRows& x, const std::vector<int>& y,
                          const SmoConfig& config) {
    if (x.rows() == 0) return Status::InvalidArgument("empty SVM training set");
    if (x.rows() != y.size()) {
        return Status::InvalidArgument("SVM label/row count mismatch");
    }
    for (int label : y) {
        if (label != 1 && label != -1) {
            return Status::InvalidArgument("SVM labels must be in {-1, +1}");
        }
    }
    if (config.c <= 0.0) return Status::InvalidArgument("SVM C must be positive");
    SmoSolver solver(x, y, config);
    return solver.Solve();
}

double MaxKktViolation(const SmoModel& model, const PackedRows& x,
                       const std::vector<int>& y, double c) {
    double worst = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
        const double margin =
            static_cast<double>(y[i]) * model.Decision(x.Row(i));
        const double a = model.alpha[i];
        double violation = 0.0;
        if (a <= 1e-12) {
            violation = std::max(0.0, 1.0 - margin);  // should have y·f ≥ 1
        } else if (a >= c - 1e-12) {
            violation = std::max(0.0, margin - 1.0);  // should have y·f ≤ 1
        } else {
            violation = std::fabs(margin - 1.0);  // should sit on the margin
        }
        worst = std::max(worst, violation);
    }
    return worst;
}

}  // namespace dfp
