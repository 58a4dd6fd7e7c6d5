#include "ml/svm/smo.hpp"

#include <algorithm>
#include <cmath>

#include "common/popcount.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace dfp {

namespace {

// Bounded LRU cache of full kernel rows for solves where the n×n Gram does
// not fit (n > gram_limit). Rows live in one preallocated slab; the LRU list
// is intrusive (prev/next slot arrays), so a hit is a map lookup plus a list
// splice — no allocation anywhere after Init(). Capacity is at least two so
// the working pair of a TakeStep is always co-resident; Get() additionally
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

    bool enabled() const { return capacity_ > 0; }
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

// Training workspace: data views, alphas, error cache and (optional) Gram.
class SmoSolver {
  public:
    SmoSolver(const PackedRows& x, const std::vector<int>& y,
              const SmoConfig& config)
        : x_(x),
          y_(y),
          config_(config),
          n_(x.rows()),
          alpha_(x.rows(), 0.0),
          error_(x.rows(), 0.0),
          rng_(config.seed) {
        use_gram_ = n_ <= config_.gram_limit;
        if (use_gram_) {
            gram_.resize(n_ * n_);
            for (std::size_t i = 0; i < n_; ++i) {
                for (std::size_t j = i; j < n_; ++j) {
                    const double k = KernelOf(i, j);
                    gram_[i * n_ + j] = k;
                    gram_[j * n_ + i] = k;
                }
            }
            kernel_evals_ += n_ * (n_ + 1) / 2;  // the Gram build itself
        }
        use_cache_ = !use_gram_ && config_.cache_bytes > 0;
        if (use_cache_) cache_.Init(n_, config_.cache_bytes);
        if (config_.kernel.type == KernelType::kLinear) {
            w_.assign(x_.cols(), 0.0);
        }
        active_.assign(n_, 1);
        // f(x_i) = 0 initially, so E_i = −y_i.
        for (std::size_t i = 0; i < n_; ++i) error_[i] = -static_cast<double>(y_[i]);
    }

    Result<SmoModel> Solve() {
        // Platt's outer loop: alternate full sweeps and non-bound sweeps until
        // a full sweep makes no progress.
        BudgetGuard guard(config_.budget);
        bool examine_all = true;
        bool budget_hit = false;
        std::size_t changed = 0;
        std::size_t passes = 0;
        while ((changed > 0 || examine_all) && passes < config_.max_passes &&
               steps_ < config_.max_steps) {
            changed = 0;
            // A full sweep must see exact errors: reactivate every shrunk
            // point, reconstructing its error from the current iterate.
            if (examine_all && config_.shrinking) Unshrink();
            for (std::size_t i = 0; i < n_; ++i) {
                if (guard.Check(0) != BudgetBreach::kNone) {
                    budget_hit = true;
                    break;
                }
                if (!examine_all && !IsNonBound(i)) continue;
                changed += ExamineExample(i);
                if (steps_ >= config_.max_steps) break;
            }
            if (budget_hit) break;
            if (examine_all) {
                examine_all = false;
            } else if (changed == 0) {
                examine_all = true;
            } else if (config_.shrinking) {
                // Between non-full sweeps, drop bound points that satisfy
                // KKT beyond tolerance from the O(n) refresh and the
                // candidate scans.
                Shrink();
            }
            ++passes;
        }
        FlushMetrics(passes);
        // Convergence means a full sweep found no KKT violator — not an exit
        // forced by the pair-update or execution budget.
        const bool exhausted = budget_hit || passes >= config_.max_passes ||
                               steps_ >= config_.max_steps;
        auto model = BuildModel();
        if (model.ok()) {
            model.value().converged = !exhausted && changed == 0 && !examine_all;
            model.value().breach = guard.breach();
        }
        return model;
    }

  private:
    double Kern(std::size_t i, std::size_t j) const {
        if (use_gram_) {
            ++cache_hits_;
            return gram_[i * n_ + j];
        }
        ++kernel_evals_;
        return KernelOf(i, j);
    }

    // K(x_i, x_j) from the packed rows' overlap popcount.
    double KernelOf(std::size_t i, std::size_t j) const {
        return BinaryKernelEval(config_.kernel, x_.AndCount(i, j), x_.Count(i),
                                x_.Count(j));
    }

    // One registry flush per Solve(); the per-call tallies above keep the
    // inner loops free of atomics.
    void FlushMetrics(std::size_t passes) const {
        auto& registry = obs::Registry::Get();
        static auto& passes_c = registry.GetCounter("dfp.ml.smo.passes");
        static auto& steps_c = registry.GetCounter("dfp.ml.smo.take_steps");
        static auto& examine_c = registry.GetCounter("dfp.ml.smo.examine_calls");
        static auto& kern_c = registry.GetCounter("dfp.ml.smo.kernel_evals");
        static auto& hits_c = registry.GetCounter("dfp.ml.smo.cache_hits");
        static auto& solves_c = registry.GetCounter("dfp.ml.smo.solves");
        passes_c.Inc(passes);
        steps_c.Inc(steps_);
        examine_c.Inc(examine_calls_);
        kern_c.Inc(kernel_evals_);
        hits_c.Inc(cache_hits_);
        solves_c.Inc();
        if (use_cache_) {
            static auto& row_hits = registry.GetCounter("dfp.svm.cache.hits");
            static auto& row_misses = registry.GetCounter("dfp.svm.cache.misses");
            static auto& row_evict = registry.GetCounter("dfp.svm.cache.evictions");
            static auto& rows_g = registry.GetGauge("dfp.svm.cache.rows");
            row_hits.Inc(cache_.hits());
            row_misses.Inc(cache_.misses());
            row_evict.Inc(cache_.evictions());
            rows_g.Set(static_cast<double>(cache_.resident_rows()));
        }
        if (config_.shrinking) {
            static auto& shrunk_c = registry.GetCounter("dfp.ml.smo.shrunk_points");
            shrunk_c.Inc(shrunk_total_);
        }
    }

    bool IsNonBound(std::size_t i) const {
        return alpha_[i] > 0.0 && alpha_[i] < config_.c;
    }

    /// Kernel row i via the LRU cache (call only when use_cache_).
    const double* CachedRow(std::size_t i, std::size_t pinned) {
        return cache_.Get(i, pinned, [this](std::size_t r, double* out) {
            for (std::size_t j = 0; j < n_; ++j) {
                out[j] = KernelOf(r, j);
            }
            kernel_evals_ += n_;
        });
    }

    /// Deactivates strictly-KKT-satisfied bound points. Their error entries
    /// go stale until Unshrink().
    void Shrink() {
        for (std::size_t i = 0; i < n_; ++i) {
            if (!active_[i]) continue;
            const double r = error_[i] * static_cast<double>(y_[i]);
            const bool at_lower = alpha_[i] <= 0.0;
            const bool at_upper = alpha_[i] >= config_.c;
            if ((at_lower && r > config_.tol) || (at_upper && r < -config_.tol)) {
                active_[i] = 0;
                ++shrunk_total_;
            }
        }
    }

    /// Reactivates all points, rebuilding the stale errors exactly:
    /// error_[i] = f(x_i) − y_i under the current (α, b) iterate.
    void Unshrink() {
        for (std::size_t i = 0; i < n_; ++i) {
            if (active_[i]) continue;
            error_[i] = Fx(i, nullptr) - static_cast<double>(y_[i]);
            active_[i] = 1;
        }
    }

    // f(x_i) − y_i; error_ holds it for all points (full cache).
    double Error(std::size_t i) const { return error_[i]; }

    std::size_t ExamineExample(std::size_t i2) {
        ++examine_calls_;
        const double y2 = y_[i2];
        const double e2 = Error(i2);
        const double r2 = e2 * y2;
        const bool kkt_violated = (r2 < -config_.tol && alpha_[i2] < config_.c) ||
                                  (r2 > config_.tol && alpha_[i2] > 0.0);
        if (!kkt_violated) return 0;

        // Second-choice heuristic: maximize |E1 − E2| over non-bound points.
        std::size_t best = n_;
        double best_gap = -1.0;
        for (std::size_t i = 0; i < n_; ++i) {
            if (!IsNonBound(i)) continue;
            const double gap = std::fabs(Error(i) - e2);
            if (gap > best_gap) {
                best_gap = gap;
                best = i;
            }
        }
        if (best < n_ && TakeStep(best, i2)) return 1;

        // Fall back: non-bound points from a random start, then all points.
        const std::size_t start =
            static_cast<std::size_t>(rng_.UniformInt(std::uint64_t{n_}));
        for (std::size_t k = 0; k < n_; ++k) {
            const std::size_t i = (start + k) % n_;
            if (IsNonBound(i) && TakeStep(i, i2)) return 1;
        }
        // Shrunk points are skipped: their cached errors are stale (no-op
        // when shrinking is off — every point stays active).
        for (std::size_t k = 0; k < n_; ++k) {
            const std::size_t i = (start + k) % n_;
            if (active_[i] && TakeStep(i, i2)) return 1;
        }
        return 0;
    }

    bool TakeStep(std::size_t i1, std::size_t i2) {
        if (i1 == i2) return false;
        const double a1_old = alpha_[i1];
        const double a2_old = alpha_[i2];
        const double y1 = y_[i1];
        const double y2 = y_[i2];
        const double e1 = Error(i1);
        const double e2 = Error(i2);
        const double s = y1 * y2;

        double lo;
        double hi;
        if (s < 0.0) {
            lo = std::max(0.0, a2_old - a1_old);
            hi = std::min(config_.c, config_.c + a2_old - a1_old);
        } else {
            lo = std::max(0.0, a1_old + a2_old - config_.c);
            hi = std::min(config_.c, a1_old + a2_old);
        }
        if (lo >= hi) return false;

        // Row-cache path: fetch both working rows once; k11/k12/k22, the
        // O(n) error refresh and the Fx re-anchors below all read from them.
        const double* row1 = nullptr;
        const double* row2 = nullptr;
        if (use_cache_) {
            row1 = CachedRow(i1, i2);
            row2 = CachedRow(i2, i1);
        }
        const double k11 = row1 != nullptr ? row1[i1] : Kern(i1, i1);
        const double k12 = row1 != nullptr ? row1[i2] : Kern(i1, i2);
        const double k22 = row2 != nullptr ? row2[i2] : Kern(i2, i2);
        const double eta = k11 + k22 - 2.0 * k12;

        double a2_new;
        if (eta > 0.0) {
            a2_new = a2_old + y2 * (e1 - e2) / eta;
            a2_new = std::clamp(a2_new, lo, hi);
        } else {
            // Degenerate curvature: evaluate the objective at both clip ends.
            const double f1 = y1 * (e1 + bias_) - a1_old * k11 - s * a2_old * k12;
            const double f2 = y2 * (e2 + bias_) - s * a1_old * k12 - a2_old * k22;
            const double l1 = a1_old + s * (a2_old - lo);
            const double h1 = a1_old + s * (a2_old - hi);
            const double obj_lo = l1 * f1 + lo * f2 + 0.5 * l1 * l1 * k11 +
                                  0.5 * lo * lo * k22 + s * lo * l1 * k12;
            const double obj_hi = h1 * f1 + hi * f2 + 0.5 * h1 * h1 * k11 +
                                  0.5 * hi * hi * k22 + s * hi * h1 * k12;
            if (obj_lo < obj_hi - config_.eps) {
                a2_new = lo;
            } else if (obj_lo > obj_hi + config_.eps) {
                a2_new = hi;
            } else {
                return false;
            }
        }
        if (std::fabs(a2_new - a2_old) <
            config_.eps * (a2_new + a2_old + config_.eps)) {
            return false;
        }
        const double a1_new = a1_old + s * (a2_old - a2_new);

        // Bias update (Platt eq. 20-21).
        const double b1 = e1 + y1 * (a1_new - a1_old) * k11 +
                          y2 * (a2_new - a2_old) * k12 + bias_;
        const double b2 = e2 + y1 * (a1_new - a1_old) * k12 +
                          y2 * (a2_new - a2_old) * k22 + bias_;
        double b_new;
        if (a1_new > 0.0 && a1_new < config_.c) {
            b_new = b1;
        } else if (a2_new > 0.0 && a2_new < config_.c) {
            b_new = b2;
        } else {
            b_new = 0.5 * (b1 + b2);
        }
        const double delta_b = b_new - bias_;
        bias_ = b_new;
        alpha_[i1] = a1_new;
        alpha_[i2] = a2_new;

        // Incremental error-cache refresh (shrunk points skipped — their
        // errors are reconstructed exactly at the next full sweep).
        const double d1 = y1 * (a1_new - a1_old);
        const double d2 = y2 * (a2_new - a2_old);
        if (row1 != nullptr) {
            for (std::size_t i = 0; i < n_; ++i) {
                if (!active_[i]) continue;
                error_[i] += d1 * row1[i] + d2 * row2[i] - delta_b;
            }
        } else {
            for (std::size_t i = 0; i < n_; ++i) {
                if (!active_[i]) continue;
                error_[i] += d1 * Kern(i1, i) + d2 * Kern(i2, i) - delta_b;
            }
        }
        // Update the primal weights BEFORE re-anchoring the two changed
        // errors: Fx() reads w_ on the linear path. w += d1·x_i1 + d2·x_i2
        // touches only the columns either row sets; a column both set gets
        // d1 + d2 in one addition, as the dense update rounds it.
        if (!w_.empty()) {
            const auto r1 = x_.Row(i1);
            const auto r2 = x_.Row(i2);
            for (std::size_t k = 0; k < r1.size(); ++k) {
                std::uint64_t bits = r1[k] | r2[k];
                while (bits != 0) {
                    const int b = __builtin_ctzll(bits);
                    const std::uint64_t bit = std::uint64_t{1} << b;
                    w_[k * 64 + static_cast<std::size_t>(b)] +=
                        ((r1[k] & bit) != 0 ? d1 : 0.0) +
                        ((r2[k] & bit) != 0 ? d2 : 0.0);
                    bits &= bits - 1;
                }
            }
        }
        error_[i1] = Fx(i1, row1) - y1;  // recompute exactly for the changed points
        error_[i2] = Fx(i2, row2) - y2;
        ++steps_;
        return true;
    }

    // f(x_i) from scratch (re-anchoring the two changed points, and error
    // reconstruction on Unshrink). `row` is the cached kernel row for i when
    // available — K is symmetric, so row[j] = K(x_j, x_i).
    double Fx(std::size_t i, const double* row) const {
        double f = -bias_;
        if (!w_.empty()) {
            // w·x_i over the set bits, in column order (the zero terms of
            // the dense sum add nothing).
            double dot = 0.0;
            x_.ForEach(i, [this, &dot](std::size_t d) { dot += w_[d]; });
            f += dot;
        } else if (row != nullptr) {
            for (std::size_t j = 0; j < n_; ++j) {
                if (alpha_[j] > 0.0) f += alpha_[j] * y_[j] * row[j];
            }
        } else {
            for (std::size_t j = 0; j < n_; ++j) {
                if (alpha_[j] > 0.0) f += alpha_[j] * y_[j] * Kern(j, i);
            }
        }
        return f;
    }

    Result<SmoModel> BuildModel() {
        SmoModel model;
        model.kernel = config_.kernel;
        model.bias = -bias_;  // Platt uses f = Σ… − b; expose f = Σ… + bias
        model.alpha = alpha_;
        model.iterations = steps_;
        if (!w_.empty()) {
            model.w = w_;
        }
        std::vector<std::size_t> sv_rows;
        for (std::size_t i = 0; i < n_; ++i) {
            if (alpha_[i] <= 0.0) continue;
            model.sv_coef.push_back(alpha_[i] * y_[i]);
            sv_rows.push_back(i);
        }
        model.sv = x_.SelectRows(sv_rows);
        return model;
    }

    const PackedRows& x_;
    const std::vector<int>& y_;
    const SmoConfig& config_;
    std::size_t n_;
    std::vector<double> alpha_;
    std::vector<double> error_;
    std::vector<double> gram_;
    std::vector<double> w_;
    KernelRowCache cache_;
    std::vector<char> active_;  // 0 = shrunk (bound + KKT-satisfied)
    double bias_ = 0.0;  // Platt's threshold b (f = Σ αyK − b)
    bool use_gram_ = false;
    bool use_cache_ = false;
    std::size_t shrunk_total_ = 0;
    std::size_t steps_ = 0;
    std::size_t examine_calls_ = 0;
    // mutable: tallied inside const Kern() on both lookup paths.
    mutable std::size_t kernel_evals_ = 0;
    mutable std::size_t cache_hits_ = 0;
    Rng rng_;
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
