#include "ml/classifier.hpp"

#include <ostream>

#include "common/string_util.hpp"

namespace dfp {

Status Classifier::SaveModel(std::ostream&) const {
    return Status::FailedPrecondition("learner '" + Name() + "' is not serializable");
}

Status Classifier::LoadModel(std::istream&, std::size_t) {
    return Status::FailedPrecondition("learner '" + Name() + "' is not serializable");
}

Status ValidateTrainingInput(const char* learner, const FeatureMatrix& x,
                             const std::vector<ClassLabel>& y,
                             std::size_t num_classes) {
    if (y.size() != x.rows()) {
        return Status::InvalidArgument(StrFormat(
            "%s: %zu labels for %zu rows", learner, y.size(), x.rows()));
    }
    for (std::size_t r = 0; r < y.size(); ++r) {
        if (y[r] >= num_classes) {
            return Status::InvalidArgument(
                StrFormat("%s: row %zu has label %u, not below %zu classes",
                          learner, r, static_cast<unsigned>(y[r]), num_classes));
        }
    }
    return Status::Ok();
}

}  // namespace dfp
