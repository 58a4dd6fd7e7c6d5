// Discretization of numeric attributes into categorical bins.
//
// The paper states "continuous attributes are discretized first" before the
// (attribute, value) → item mapping. The scheme is Fayyad–Irani MDL (1993):
// supervised recursive entropy minimization with the MDL stopping criterion,
// what Weka applies by default and the usual choice for associative
// classification preprocessing.
//
// The discretizer is fit on training data only and then applied to train and
// test alike (cut points are part of the learned model, so no test leakage).
#pragma once

#include <vector>

#include "common/status.hpp"
#include "data/dataset.hpp"

namespace dfp {

/// Per-attribute discretization model: ascending cut points. A value v maps to
/// bin i where cuts[i-1] <= v < cuts[i] (bin 0 is (-inf, cuts[0])).
struct DiscretizationModel {
    /// cut_points[attr] is empty for attributes left untouched (categorical).
    std::vector<std::vector<double>> cut_points;

    /// Bin index for a raw value of attribute `attr`.
    std::uint32_t BinOf(std::size_t attr, double value) const;
};

/// Fayyad–Irani recursive minimal-entropy partitioning with the MDL stopping
/// criterion. Supervised; may return zero cut points for a column (the
/// attribute collapses to a single bin) when no split passes the MDL test.
class MdlDiscretizer {
  public:
    /// Computes ascending cut points for one column. `values` and `labels`
    /// are parallel.
    std::vector<double> FindCutPoints(const std::vector<double>& values,
                                      const std::vector<ClassLabel>& labels,
                                      std::size_t num_classes) const;

    /// Fits a model over all numeric attributes of `data`.
    DiscretizationModel Fit(const Dataset& data) const;

    /// Applies a fitted model: numeric attributes become categorical bins
    /// named "[a,b)"-style; categorical attributes pass through.
    static Dataset Apply(const DiscretizationModel& model, const Dataset& data);

    /// Fit + Apply on the same data.
    Dataset FitApply(const Dataset& data) const;
};

}  // namespace dfp
