// Trained-model persistence.
//
// A trained PatternClassifierPipeline is a FeatureSpace (item universe +
// selected pattern itemsets) plus a learner. Both serialize to a line-oriented
// text format ("dfp-model v1"), human-inspectable and stable across platforms.
// Covers and training-time metadata are not persisted — prediction only needs
// the itemsets. One exception: when the significance filter shaped the model,
// an optional "provenance <n> key=value ..." line after the header records
// how (sig_test/alpha/correction/...), so a served model can always answer
// "which test pruned these patterns". Models trained without the filter have
// no provenance line and their bundles are byte-identical to the pre-filter
// format; the loader accepts both.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "core/feature_space.hpp"
#include "core/pipeline.hpp"
#include "ml/classifier.hpp"

namespace dfp {

/// Serializes a feature space (item count + pattern itemsets), the first
/// section of a pipeline bundle.
Status SaveFeatureSpace(const FeatureSpace& space, std::ostream& out);

/// Creates an untrained learner from its TypeId ("svm", "c4.5", "nb").
/// Returns NotFound for unknown ids.
Result<std::unique_ptr<Classifier>> MakeLearnerByTypeId(const std::string& id);

/// Serializes a trained pipeline (feature space + learner).
Status SavePipelineModel(const PatternClassifierPipeline& pipeline,
                         std::ostream& out);

/// A loaded predictor: feature space + learner, predicting raw transactions.
///
/// Predict reuses an internal encode buffer, so a LoadedModel must not be
/// shared across threads without external synchronization. Concurrent scoring
/// goes through serve::ScoringEngine, which keeps per-worker scratch instead.
class LoadedModel {
  public:
    LoadedModel(FeatureSpace space, std::unique_ptr<Classifier> learner)
        : space_(std::move(space)), learner_(std::move(learner)) {}

    ClassLabel Predict(const std::vector<ItemId>& transaction) const;
    /// Accuracy over `test`, scored as one transformed matrix.
    double Accuracy(const TransactionDatabase& test) const;
    const FeatureSpace& feature_space() const { return space_; }
    const Classifier& learner() const { return *learner_; }
    /// Training provenance carried in the bundle (empty on legacy models and
    /// models trained without the significance filter): sig_test, alpha,
    /// correction, sig_rejected, ... — see PatternClassifierPipeline::
    /// provenance().
    const std::vector<std::pair<std::string, std::string>>& provenance() const {
        return provenance_;
    }
    void set_provenance(
        std::vector<std::pair<std::string, std::string>> provenance) {
        provenance_ = std::move(provenance);
    }

  private:
    FeatureSpace space_;
    std::unique_ptr<Classifier> learner_;
    std::vector<std::pair<std::string, std::string>> provenance_;
    mutable PatternMatchIndex::Scratch scratch_;  // matcher state for Predict
};

/// Deserializes a pipeline model saved with SavePipelineModel.
Result<LoadedModel> LoadPipelineModel(std::istream& in);

/// File-path conveniences, hardened for crash safety (DESIGN.md §15):
/// * Save is atomic (tmp + fsync + rename + parent-dir fsync) and appends an
///   FNV-1a 64 checksum trailer ("checksum fnv1a64 <hex> <bytes>") — a crash
///   mid-save leaves the previous file intact, never a torn bundle.
/// * Load verifies the trailer (InvalidArgument on mismatch) and still
///   accepts legacy trailer-less bundles.
/// The stream APIs above stay trailer-free: the trailer is a property of the
/// at-rest file, not of the serialization format.
Status SavePipelineModelToFile(const PatternClassifierPipeline& pipeline,
                               const std::string& path);
Result<LoadedModel> LoadPipelineModelFromFile(const std::string& path);

}  // namespace dfp
