// Binary soft-margin SVM trained with Platt's SMO (our LIBSVM substitute).
//
// Solves  max_α Σα_i − ½ΣΣ α_iα_j y_iy_j K(x_i,x_j)
//         s.t. 0 ≤ α_i ≤ C, Σ α_i y_i = 0
// with the classic two-variable analytic step, a full error cache, and the
// max-|E1−E2| second-choice heuristic. For the linear kernel the primal
// weight vector is maintained incrementally, making decision evaluation O(d).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/budget.hpp"
#include "common/status.hpp"
#include "ml/feature_matrix.hpp"
#include "ml/svm/kernel.hpp"

namespace dfp {

struct SmoConfig {
    double c = 1.0;  ///< soft-margin penalty
    KernelParams kernel;
    double tol = 1e-3;       ///< KKT violation tolerance
    double eps = 1e-8;       ///< minimal alpha step
    std::size_t max_passes = 200;  ///< outer passes without progress cap
    std::size_t max_steps = 2'000'000;  ///< total pair-update budget
    /// Precompute the full Gram matrix when n ≤ this (memory: n² doubles).
    std::size_t gram_limit = 3000;
    /// Kernel-row LRU cache budget for solves too large for the full Gram
    /// (n > gram_limit): TakeStep's O(n) error refresh re-reads the two
    /// changed rows, so caching whole rows turns its 2n kernel evaluations
    /// into 2n loads on a hit. Cached rows hold exactly the values direct
    /// evaluation would produce (BinaryKernelEval is deterministic and
    /// symmetric), so the optimization trajectory — and the trained model —
    /// is bit-identical with the cache on or off. 0 disables the cache.
    std::size_t cache_bytes = 64ull << 20;
    /// LIBSVM-style shrinking: bound multipliers that satisfy KKT beyond tol
    /// are dropped from the error-cache refresh and the step-candidate scans
    /// until the next full sweep, where their errors are reconstructed
    /// exactly from the current iterate before re-examination. Cuts the
    /// per-step O(n) work on mostly-converged solves, but reorders float
    /// updates (the trajectory is no longer bit-identical to the unshrunk
    /// solve, though both converge to tolerance), so it defaults to off.
    bool shrinking = false;
    std::uint64_t seed = 7;  ///< tie-breaking RNG
    /// SvmClassifier-level: worker threads for the one-vs-one pairwise
    /// solves (each binary subproblem is independent and deterministic, so
    /// predictions are identical for every thread count). TrainSmo itself is
    /// single-threaded. 1 = serial; 0 = hardware_concurrency.
    std::size_t num_threads = 1;
    /// Wall-clock / cancellation limits for the solve (checked between
    /// examine calls). A breach stops the solver with the current iterate.
    ExecutionBudget budget;
    /// SvmClassifier-level policy (ignored by TrainSmo itself): when SMO
    /// exhausts max_steps/max_passes without converging, retrain the pair
    /// with the Pegasos primal solver instead of keeping the dubious dual
    /// iterate.
    bool fallback_to_pegasos = true;
};

/// Trained binary SVM. Labels are {−1, +1}.
struct SmoModel {
    KernelParams kernel;
    /// Support vectors (packed rows) and their coefficients α_i·y_i.
    PackedRows sv;
    std::vector<double> sv_coef;
    double bias = 0.0;
    /// Primal weights (linear kernel only; empty otherwise).
    std::vector<double> w;
    /// Training α per training row (kept for KKT certification in tests).
    std::vector<double> alpha;
    std::size_t iterations = 0;  ///< pair updates performed
    /// False when the solver stopped before a full KKT-clean sweep: pair-
    /// update budget (max_steps/max_passes) exhausted or execution budget
    /// breached. The model is still usable — it is the current SMO iterate —
    /// but callers may prefer a fallback solver.
    bool converged = true;
    /// The execution-budget breach that stopped the solve (kNone when the
    /// stop was due to max_steps/max_passes or natural convergence).
    BudgetBreach breach = BudgetBreach::kNone;

    /// Decision value f(x) of a packed row; classify by sign. K comes from
    /// popcounts; w·x adds the weights of the set bits in column order.
    double Decision(std::span<const std::uint64_t> row) const;
};

/// Trains on the 0/1 rows of `x` with labels y_i ∈ {−1, +1}. Kernel values
/// come from row popcounts (BinaryKernelEval), in training and in Decision().
Result<SmoModel> TrainSmo(const PackedRows& x, const std::vector<int>& y,
                          const SmoConfig& config);

/// Max KKT-condition violation of the trained model on its training set;
/// used by the tests to certify convergence (should be ≤ config.tol + slack).
double MaxKktViolation(const SmoModel& model, const PackedRows& x,
                       const std::vector<int>& y, double c);

}  // namespace dfp
