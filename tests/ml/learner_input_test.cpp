// Malformed learner input: every learner's Train runs the shared
// ValidateTrainingInput check first, so a label vector whose length differs
// from the row count, or a label at or past num_classes, is rejected with
// InvalidArgument before any per-class table is indexed by a label. Run under
// the asan preset, an unchecked label would show as a heap overflow.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/dtree/c45.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "ml/svm/svm.hpp"

namespace dfp {
namespace {

// 12 rows over 3 features, labels 0/1 by feature 0.
FeatureMatrix SmallMatrix() {
    FeatureMatrix x(12, 3);
    for (std::size_t r = 0; r < 12; ++r) {
        if (r % 2 == 0) x.Set(r, 0);
        if (r % 3 == 0) x.Set(r, 1);
        if (r % 5 == 0) x.Set(r, 2);
    }
    return x;
}

std::vector<ClassLabel> GoodLabels() {
    std::vector<ClassLabel> y(12);
    for (std::size_t r = 0; r < 12; ++r) y[r] = r % 2 == 0 ? 0 : 1;
    return y;
}

// The three malformed inputs, then the well-formed one (which must train).
void ExpectRejectsMalformedLabels(Classifier& learner) {
    const FeatureMatrix x = SmallMatrix();
    std::vector<ClassLabel> short_y = GoodLabels();
    short_y.pop_back();
    std::vector<ClassLabel> long_y = GoodLabels();
    long_y.push_back(0);
    std::vector<ClassLabel> out_of_range = GoodLabels();
    out_of_range[7] = 2;  // num_classes is 2
    for (const auto& [what, y] :
         {std::pair<std::string, const std::vector<ClassLabel>*>{"short", &short_y},
          {"long", &long_y},
          {"label >= num_classes", &out_of_range}}) {
        const Status st = learner.Train(x, *y, 2);
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
            << learner.Name() << " " << what << ": " << st.ToString();
    }
    const Status ok = learner.Train(x, GoodLabels(), 2);
    EXPECT_TRUE(ok.ok()) << learner.Name() << ": " << ok.ToString();
}

TEST(LearnerInputTest, NaiveBayesRejectsMalformedLabels) {
    NaiveBayesClassifier learner;
    ExpectRejectsMalformedLabels(learner);
}

TEST(LearnerInputTest, C45RejectsMalformedLabels) {
    C45Classifier learner;
    ExpectRejectsMalformedLabels(learner);
}

TEST(LearnerInputTest, SvmRejectsMalformedLabels) {
    SvmClassifier learner;
    ExpectRejectsMalformedLabels(learner);
}

}  // namespace
}  // namespace dfp
