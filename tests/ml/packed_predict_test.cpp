// Certificate for the learners' packed Predict: on random 0/1 rows at word-
// edge widths, every learner predicts what the dense reference rebuilt from
// its saved parameters (testutil/dense_reference) predicts for the same row
// as doubles.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/dtree/c45.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "ml/svm/svm.hpp"
#include "testutil/dense_reference.hpp"

namespace dfp {
namespace {

constexpr std::size_t kClasses = 3;

// Rows × cols 0/1 matrix: feature f leans toward class f % kClasses, so every
// learner has signal to fit at every width.
FeatureMatrix RandomRows(std::size_t rows, std::size_t cols, std::uint64_t seed,
                         std::vector<ClassLabel>* y) {
    Rng rng(seed);
    FeatureMatrix x(rows, cols);
    y->clear();
    for (std::size_t r = 0; r < rows; ++r) {
        const auto label =
            static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{kClasses}));
        y->push_back(label);
        for (std::size_t c = 0; c < cols; ++c) {
            if (rng.Bernoulli(c % kClasses == label ? 0.6 : 0.25)) x.Set(r, c);
        }
    }
    return x;
}

std::vector<std::pair<std::string, std::unique_ptr<Classifier>>> Learners() {
    std::vector<std::pair<std::string, std::unique_ptr<Classifier>>> learners;
    learners.emplace_back("nb", std::make_unique<NaiveBayesClassifier>());
    learners.emplace_back("c4.5", std::make_unique<C45Classifier>());
    SmoConfig config;
    learners.emplace_back("svm-linear", std::make_unique<SvmClassifier>(config));
    config.kernel.type = KernelType::kRbf;
    config.kernel.gamma = 0.2;
    learners.emplace_back("svm-rbf", std::make_unique<SvmClassifier>(config));
    config.kernel.type = KernelType::kPolynomial;
    config.kernel.gamma = 0.1;
    config.kernel.coef0 = 1.0;
    config.kernel.degree = 2;
    learners.emplace_back("svm-poly", std::make_unique<SvmClassifier>(config));
    return learners;
}

TEST(PackedPredictTest, EveryLearnerEqualsItsDenseReference) {
    for (const std::size_t width : {1, 63, 64, 65, 129}) {
        std::vector<ClassLabel> y;
        const FeatureMatrix train = RandomRows(90, width, 1000 + width, &y);
        std::vector<ClassLabel> unused;
        const FeatureMatrix probes = RandomRows(200, width, 2000 + width, &unused);
        // The empty row and the full row: decision values at their extremes,
        // and w·x of the empty row an exact zero.
        FeatureMatrix edges(2, width);
        for (std::size_t c = 0; c < width; ++c) edges.Set(1, c);
        const PackedRows packed_edges(edges);
        const PackedRows packed_probes(probes);
        const PackedRows packed_train(train);
        for (auto& [name, learner] : Learners()) {
            SCOPED_TRACE(name + " width " + std::to_string(width));
            ASSERT_TRUE(learner->Train(train, y, kClasses).ok());
            const testutil::DensePredictor dense = testutil::DenseReference(*learner);
            for (const auto* rows : {&packed_train, &packed_probes, &packed_edges}) {
                for (std::size_t r = 0; r < rows->rows(); ++r) {
                    ASSERT_EQ(rows->Row(r).size(), PackedWords(width));
                    ASSERT_EQ(learner->Predict(rows->Row(r)),
                              dense(testutil::DenseRow(rows->Row(r), width)))
                        << "row " << r;
                }
            }
        }
    }
}

}  // namespace
}  // namespace dfp
