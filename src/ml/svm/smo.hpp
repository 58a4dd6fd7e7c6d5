// Binary soft-margin SVM trained with LIBSVM's SMO solver.
//
// Solves  min_α ½αᵀQα − eᵀα,  Q_ij = y_i y_j K(x_i, x_j)
//         s.t. 0 ≤ α_i ≤ C, Σ α_i y_i = 0
// as LIBSVM does (Fan, Chen & Lin, "Working Set Selection Using Second Order
// Information", JMLR 6, 2005): keep the gradient of the dual, pick the
// maximal violating pair by second-order gain, take the clipped two-variable
// step and update the gradient from the pair's two kernel rows.
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
    /// Stopping tolerance: the solve ends when the maximal violating pair's
    /// gap m(α) − M(α) is below it (LIBSVM's ε).
    double tol = 1e-3;
    std::size_t max_steps = 2'000'000;  ///< pair-update cap
    /// Memory bound of the kernel-row LRU cache the solver reads every
    /// kernel row from (capacity = cache_bytes / (8n) rows, at least 2, at
    /// most n). Cached rows hold exactly the values direct evaluation would
    /// produce (BinaryKernelEval is deterministic and symmetric), so the
    /// capacity never changes the trained model, only how often a row is
    /// recomputed.
    std::size_t cache_bytes = 64ull << 20;
    /// SvmClassifier-level: worker threads for the one-vs-one pairwise
    /// solves (each binary subproblem is independent and deterministic, so
    /// predictions are identical for every thread count). TrainSmo itself is
    /// single-threaded. 1 = serial; 0 = hardware_concurrency.
    std::size_t num_threads = 1;
    /// Wall-clock / cancellation limits for the solve (checked once per
    /// iteration). A breach stops the solver with the current iterate.
    ExecutionBudget budget;
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
    /// False when the solver stopped before the maximal violation fell below
    /// tol: max_steps exhausted or execution budget breached. The model is
    /// still usable — it is the current iterate, a valid decision function.
    bool converged = true;
    /// The execution-budget breach that stopped the solve (kNone when the
    /// stop was due to max_steps or natural convergence).
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
/// used by the tests to certify convergence (≤ config.tol for a converged
/// solve).
double MaxKktViolation(const SmoModel& model, const PackedRows& x,
                       const std::vector<int>& y, double c);

}  // namespace dfp
