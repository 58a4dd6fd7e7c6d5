// Concept-drift detection over the live stream (DESIGN.md §16).
//
// Two cheap, deterministic signals, both computed from what the serving path
// already produces:
//
//  * Prequential accuracy drop — every labelled transaction is scored by the
//    currently served model *before* it enters the training window
//    (test-then-train). A rolling window of correctness bits estimates live
//    accuracy; when it falls more than `accuracy_drop` below the baseline
//    recorded at the last retrain, the stream has drifted.
//  * Class-distribution shift — the total-variation distance between the
//    rolling label histogram and the baseline class distribution. Catches
//    prior drift even when the model still happens to score well (and drift
//    before any model is serving, when no accuracy signal exists).
//
// The detector is a pure accumulator: ObservePrediction/ObserveLabel feed it,
// Check() renders a verdict, SetBaseline()+ResetRecent() re-arm it after a
// retrain. It never triggers before `min_observations` labels, so a fresh
// window can't alarm on noise. Not thread-safe — the ContinuousTrainer
// serializes access under its own mutex.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "data/transaction_db.hpp"

namespace dfp::stream {

struct DriftDetectorConfig {
    /// Rolling-window length (observations) for both signals.
    std::size_t window = 256;
    /// Labels required in the rolling window before Check() may trigger.
    std::size_t min_observations = 64;
    /// Trigger when recent accuracy < baseline accuracy - accuracy_drop.
    /// Negative disables the accuracy signal.
    double accuracy_drop = 0.15;
    /// Trigger when TV(recent labels, baseline labels) exceeds this.
    /// Negative disables the class-shift signal.
    double class_shift = 0.30;
};

struct DriftVerdict {
    bool drifted = false;
    /// "accuracy_drop", "class_shift", or "" when not drifted.
    std::string reason;
    double recent_accuracy = -1.0;  ///< -1 when no predictions observed
    double class_shift = 0.0;       ///< TV distance; 0 without a baseline
};

class DriftDetector {
  public:
    DriftDetector(DriftDetectorConfig config, std::size_t num_classes);

    /// Feeds one prequential outcome (served prediction vs true label).
    void ObservePrediction(bool correct);

    /// Feeds one arriving label (label < num_classes, enforced upstream).
    void ObserveLabel(ClassLabel label);

    /// Records the post-retrain reference: training-window accuracy and
    /// class distribution (normalized internally; pass raw counts or
    /// frequencies). Until the first baseline only the observation-count
    /// guard applies and Check() never triggers.
    void SetBaseline(double accuracy, std::vector<double> class_distribution);

    /// Clears the rolling windows (call after a retrain: the old stream's
    /// mistakes must not indict the new model).
    void ResetRecent();

    DriftVerdict Check() const;

    /// Rolling accuracy (-1 when no predictions observed yet).
    double recent_accuracy() const;
    /// Rolling label histogram, normalized (all zeros when empty).
    std::vector<double> RecentClassDistribution() const;

  private:
    double ClassShiftLocked() const;

    DriftDetectorConfig config_;
    std::size_t num_classes_;

    std::deque<std::uint8_t> recent_correct_;
    std::size_t correct_sum_ = 0;
    std::deque<ClassLabel> recent_labels_;
    std::vector<std::size_t> label_counts_;

    bool has_baseline_ = false;
    double baseline_accuracy_ = 0.0;
    std::vector<double> baseline_dist_;
};

}  // namespace dfp::stream
