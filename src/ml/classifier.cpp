#include "ml/classifier.hpp"

#include <ostream>

namespace dfp {

Status Classifier::SaveModel(std::ostream&) const {
    return Status::FailedPrecondition("learner '" + Name() + "' is not serializable");
}

Status Classifier::LoadModel(std::istream&, std::size_t) {
    return Status::FailedPrecondition("learner '" + Name() + "' is not serializable");
}

}  // namespace dfp
