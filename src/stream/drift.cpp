#include "stream/drift.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace dfp::stream {

namespace {

// The drift gauges Check() exports, resolved once per process.
struct DriftMeters {
    obs::Gauge& recent_accuracy;
    obs::Gauge& class_shift;
};

const DriftMeters& Meters() {
    static const DriftMeters meters{
        obs::Registry::Get().GetGauge("dfp.stream.recent_accuracy"),
        obs::Registry::Get().GetGauge("dfp.stream.class_shift"),
    };
    return meters;
}

}  // namespace

DriftDetector::DriftDetector(DriftDetectorConfig config, std::size_t num_classes)
    : config_(config),
      num_classes_(num_classes),
      label_counts_(num_classes, 0) {
    if (config_.window == 0) config_.window = 1;
}

void DriftDetector::ObservePrediction(bool correct) {
    recent_correct_.push_back(correct ? 1 : 0);
    correct_sum_ += correct ? 1 : 0;
    if (recent_correct_.size() > config_.window) {
        correct_sum_ -= recent_correct_.front();
        recent_correct_.pop_front();
    }
}

void DriftDetector::ObserveLabel(ClassLabel label) {
    recent_labels_.push_back(label);
    ++label_counts_[label];
    if (recent_labels_.size() > config_.window) {
        --label_counts_[recent_labels_.front()];
        recent_labels_.pop_front();
    }
}

void DriftDetector::SetBaseline(double accuracy,
                                std::vector<double> class_distribution) {
    baseline_accuracy_ = accuracy;
    baseline_dist_ = std::move(class_distribution);
    baseline_dist_.resize(num_classes_, 0.0);
    double total = 0.0;
    for (const double v : baseline_dist_) total += v;
    if (total > 0.0) {
        for (double& v : baseline_dist_) v /= total;
    }
    has_baseline_ = true;
}

void DriftDetector::ResetRecent() {
    recent_correct_.clear();
    correct_sum_ = 0;
    recent_labels_.clear();
    std::fill(label_counts_.begin(), label_counts_.end(), 0);
}

double DriftDetector::recent_accuracy() const {
    if (recent_correct_.empty()) return -1.0;
    return static_cast<double>(correct_sum_) /
           static_cast<double>(recent_correct_.size());
}

std::vector<double> DriftDetector::RecentClassDistribution() const {
    std::vector<double> dist(num_classes_, 0.0);
    if (recent_labels_.empty()) return dist;
    const double n = static_cast<double>(recent_labels_.size());
    for (std::size_t c = 0; c < num_classes_; ++c) {
        dist[c] = static_cast<double>(label_counts_[c]) / n;
    }
    return dist;
}

double DriftDetector::ClassShiftLocked() const {
    if (!has_baseline_ || recent_labels_.empty()) return 0.0;
    const std::vector<double> recent = RecentClassDistribution();
    double l1 = 0.0;
    for (std::size_t c = 0; c < num_classes_; ++c) {
        l1 += std::fabs(recent[c] - baseline_dist_[c]);
    }
    return 0.5 * l1;  // total-variation distance
}

DriftVerdict DriftDetector::Check() const {
    DriftVerdict verdict;
    verdict.recent_accuracy = recent_accuracy();
    verdict.class_shift = ClassShiftLocked();

    Meters().recent_accuracy.Set(verdict.recent_accuracy);
    Meters().class_shift.Set(verdict.class_shift);

    if (!has_baseline_ || recent_labels_.size() < config_.min_observations) {
        return verdict;
    }
    if (config_.accuracy_drop >= 0.0 && verdict.recent_accuracy >= 0.0 &&
        recent_correct_.size() >= config_.min_observations &&
        verdict.recent_accuracy < baseline_accuracy_ - config_.accuracy_drop) {
        verdict.drifted = true;
        verdict.reason = "accuracy_drop";
        return verdict;
    }
    if (config_.class_shift >= 0.0 &&
        verdict.class_shift > config_.class_shift) {
        verdict.drifted = true;
        verdict.reason = "class_shift";
    }
    return verdict;
}

}  // namespace dfp::stream
