// C4.5-style decision tree (our Weka J48 substitute).
//
// Binary splits on 0/1 features chosen by gain ratio (Quinlan 1993), with the
// standard guards (minimum leaf size, average-gain prefilter) and C4.5's
// pessimistic error-based subtree pruning using the upper confidence bound of
// the binomial error rate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/classifier.hpp"

namespace dfp {

struct C45Config {
    std::size_t min_leaf = 2;     ///< minimum instances on each side of a split
    std::size_t max_depth = 60;   ///< hard recursion cap
    bool prune = true;            ///< pessimistic error pruning
    double confidence = 0.25;     ///< C4.5 pruning confidence factor
};

/// Gain-ratio decision tree over the 0/1 features of B^{d'}: every split
/// tests one feature, rows with it clear going left.
class C45Classifier : public Classifier {
  public:
    explicit C45Classifier(C45Config config = {}) : config_(config) {}

    std::string Name() const override { return "c4.5"; }
    std::string TypeId() const override { return "c4.5"; }
    Status Train(const FeatureMatrix& x, const std::vector<ClassLabel>& y,
                 std::size_t num_classes) override;
    ClassLabel Predict(std::span<const std::uint64_t> row) const override;
    Status SaveModel(std::ostream& out) const override;
    Status LoadModel(std::istream& in, std::size_t cols) override;

    std::size_t num_leaves() const;
    std::size_t depth() const;

  private:
    struct Node {
        bool leaf = true;
        ClassLabel label = 0;       ///< majority class at this node
        std::size_t count = 0;      ///< training instances reaching the node
        std::size_t errors = 0;     ///< training misclassifications as a leaf
        std::size_t feature = 0;    ///< split feature (internal nodes)
        double threshold = 0.0;     ///< go left iff the bit (0.0 / 1.0) <=
                                    ///< threshold (kSplitThreshold if trained)
        std::int32_t left = -1;
        std::int32_t right = -1;
    };

    /// Split threshold of a 0/1 feature (kept in the model format, which
    /// stores a threshold per node).
    static constexpr double kSplitThreshold = 0.5;
    /// A split must gain more information than this.
    static constexpr double kMinGain = 1e-7;

    /// `ones` is scratch of cols × num_classes counts shared by every node.
    std::int32_t BuildNode(const PackedRows& x, const std::vector<ClassLabel>& y,
                           std::vector<std::size_t>& rows, std::size_t depth,
                           std::vector<std::size_t>* ones);
    /// Returns the pessimistic error estimate of the subtree; prunes in place.
    double PruneNode(std::int32_t idx);
    std::size_t DepthOf(std::int32_t idx) const;

    C45Config config_;
    std::size_t num_classes_ = 0;
    std::vector<Node> nodes_;
    std::int32_t root_ = -1;
};

/// Upper confidence bound on an error rate with e errors out of n, at C4.5's
/// confidence factor cf (normal approximation, as in J48). Exposed for tests.
double PessimisticErrorRate(double e, double n, double cf);

}  // namespace dfp
