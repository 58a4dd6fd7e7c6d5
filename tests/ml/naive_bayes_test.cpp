#include "ml/nb/naive_bayes.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dfp {
namespace {

TEST(NaiveBayesTest, LearnsClassConditionalBits) {
    // Feature 0 on for class 1, feature 1 on for class 0 (with noise).
    Rng rng(1);
    FeatureMatrix x(400, 2);
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 400; ++i) {
        const ClassLabel c = i % 2;
        if (rng.Bernoulli(c == 1 ? 0.9 : 0.1)) x.Set(i, 0);
        if (rng.Bernoulli(c == 0 ? 0.9 : 0.1)) x.Set(i, 1);
        y.push_back(c);
    }
    NaiveBayesClassifier nb;
    ASSERT_TRUE(nb.Train(x, y, 2).ok());
    EXPECT_GT(nb.Accuracy(x, y), 0.9);
    // Packed probes: bit f is feature f.
    std::vector<std::uint64_t> probe = {0b01};
    EXPECT_EQ(nb.Predict(probe), 1u);
    probe = {0b10};
    EXPECT_EQ(nb.Predict(probe), 0u);
}

TEST(NaiveBayesTest, PriorDominatesWithoutEvidence) {
    FeatureMatrix x(10, 1);
    std::vector<ClassLabel> y = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1};
    NaiveBayesClassifier nb;
    ASSERT_TRUE(nb.Train(x, y, 2).ok());
    const std::vector<std::uint64_t> probe = {0};
    EXPECT_EQ(nb.Predict(probe), 0u);  // 8:2 prior
}

TEST(NaiveBayesTest, SmoothingHandlesUnseenCombination) {
    // Feature always on in training; an off value at test time must not
    // produce -inf for every class.
    FeatureMatrix x(4, 1);
    for (std::size_t i = 0; i < 4; ++i) x.Set(i, 0);
    const std::vector<ClassLabel> y = {0, 0, 1, 1};
    NaiveBayesClassifier nb;
    ASSERT_TRUE(nb.Train(x, y, 2).ok());
    const std::vector<std::uint64_t> probe = {0};
    const ClassLabel c = nb.Predict(probe);
    EXPECT_TRUE(c == 0 || c == 1);
}

TEST(NaiveBayesTest, ThreeClasses) {
    Rng rng(2);
    FeatureMatrix x(600, 3);
    std::vector<ClassLabel> y;
    for (std::size_t i = 0; i < 600; ++i) {
        const ClassLabel c = i % 3;
        for (std::size_t f = 0; f < 3; ++f) {
            if (rng.Bernoulli(f == c ? 0.85 : 0.15)) x.Set(i, f);
        }
        y.push_back(c);
    }
    NaiveBayesClassifier nb;
    ASSERT_TRUE(nb.Train(x, y, 3).ok());
    // Bayes-optimal accuracy for these class-conditionals is ≈ 0.80.
    EXPECT_GT(nb.Accuracy(x, y), 0.75);
}

TEST(NaiveBayesTest, RejectsBadInput) {
    NaiveBayesClassifier nb;
    EXPECT_FALSE(nb.Train(FeatureMatrix(), {}, 2).ok());
    FeatureMatrix x(2, 1);
    EXPECT_FALSE(nb.Train(x, {0}, 2).ok());
}

/// The saved model's parameters, parsed with strtod so -inf and NaN survive
/// (the model text carries max_digits10 digits, so finite values round-trip).
struct NbParams {
    std::size_t classes = 0;
    std::size_t cols = 0;
    std::vector<double> prior, on, off;  // on/off row-major [class][feature]
};

NbParams SavedParams(const NaiveBayesClassifier& nb) {
    std::ostringstream out;
    EXPECT_TRUE(nb.SaveModel(out).ok());
    std::istringstream in(out.str());
    std::string token;
    const auto next = [&] {
        in >> token;
        return std::strtod(token.c_str(), nullptr);
    };
    NbParams m;
    in >> token >> m.classes >> m.cols;
    next();  // smoothing
    for (std::size_t i = 0; i < m.classes; ++i) m.prior.push_back(next());
    for (std::size_t i = 0; i < m.classes * m.cols; ++i) m.on.push_back(next());
    for (std::size_t i = 0; i < m.classes * m.cols; ++i) m.off.push_back(next());
    return m;
}

/// One class at a time: prior plus one term per feature in feature order,
/// argmax by strict > in class order (ties go to the smallest class; a NaN
/// score never wins; all -inf/NaN gives class 0).
ClassLabel SerialPredict(const NbParams& m, std::span<const std::uint64_t> row) {
    ClassLabel best = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < m.classes; ++c) {
        double score = m.prior[c];
        for (std::size_t f = 0; f < m.cols; ++f) {
            score += RowBit(row, f) ? m.on[c * m.cols + f] : m.off[c * m.cols + f];
        }
        if (score > best_score) {
            best_score = score;
            best = static_cast<ClassLabel>(c);
        }
    }
    return best;
}

TEST(NaiveBayesTest, PredictEqualsSerialPerClassReference) {
    std::size_t ties = 0, non_finite = 0, probes = 0;
    for (const std::size_t k : {1u, 2u, 3u, 4u, 5u, 26u}) {
        for (const std::size_t cols : {1u, 64u, 70u, 150u}) {
            // twin 0: every class its own rows; 1: classes 2m and 2m+1 share
            // rows (ties inside a 4-class block); 2: classes c and c + 5
            // share rows (ties across blocks).
            for (int twin = 0; twin < 3; ++twin) {
                for (const double smoothing : {1.0, 0.5, 0.0}) {
                    SCOPED_TRACE("k " + std::to_string(k) + " cols " +
                                 std::to_string(cols) + " twin " +
                                 std::to_string(twin) + " smoothing " +
                                 std::to_string(smoothing));
                    // With k > 1 the last class gets no rows: smoothing 0 then
                    // gives it a -inf prior and NaN feature terms.
                    const std::size_t used = k > 1 ? k - 1 : 1;
                    std::vector<std::vector<std::uint64_t>> rows;
                    std::vector<ClassLabel> y;
                    for (std::size_t c = 0; c < used; ++c) {
                        const std::size_t source =
                            twin == 1 ? c / 2 : (twin == 2 ? c % 5 : c);
                        Rng rng(1000 * k + 10 * cols + source);
                        for (int r = 0; r < 12; ++r) {
                            std::vector<std::uint64_t> row(PackedWords(cols), 0);
                            for (std::size_t f = 0; f < cols; ++f) {
                                // Feature f % 3 == 0 is constant per source, so
                                // smoothing 0 sends some terms to -inf.
                                const bool on = f % 3 == 0 ? (source + f) % 2 == 0
                                                           : rng.Bernoulli(0.3);
                                if (on) row[f / 64] |= std::uint64_t{1} << (f % 64);
                            }
                            rows.push_back(std::move(row));
                            y.push_back(static_cast<ClassLabel>(c));
                        }
                    }
                    FeatureMatrix x(rows.size(), cols);
                    for (std::size_t r = 0; r < rows.size(); ++r) {
                        ForEachRowBit(rows[r], [&](std::size_t f) { x.Set(r, f); });
                    }
                    NaiveBayesClassifier nb(smoothing);
                    ASSERT_TRUE(nb.Train(x, y, k).ok());
                    const NbParams params = SavedParams(nb);
                    ASSERT_EQ(params.classes, k);
                    // Probe with the training rows and as many random rows.
                    Rng probe_rng(cols + k);
                    const std::size_t trained = rows.size();
                    for (std::size_t r = 0; r < trained; ++r) {
                        std::vector<std::uint64_t> row(PackedWords(cols), 0);
                        for (std::size_t f = 0; f < cols; ++f) {
                            if (probe_rng.Bernoulli(0.4)) {
                                row[f / 64] |= std::uint64_t{1} << (f % 64);
                            }
                        }
                        rows.push_back(std::move(row));
                    }
                    for (const auto& row : rows) {
                        ASSERT_EQ(nb.Predict(row), SerialPredict(params, row));
                        ++probes;
                    }
                    // Twin classes carry bitwise-equal parameters, so every
                    // probe ties them.
                    const auto on_of = [&](std::size_t c) {
                        return std::vector<double>(
                            params.on.begin() + static_cast<std::ptrdiff_t>(c * cols),
                            params.on.begin() + static_cast<std::ptrdiff_t>((c + 1) * cols));
                    };
                    const std::size_t twin_of_0 = twin == 1 ? 1 : 5;
                    if (twin != 0 && twin_of_0 < used && smoothing > 0.0 &&
                        params.prior[0] == params.prior[twin_of_0] &&
                        on_of(0) == on_of(twin_of_0)) {
                        ++ties;
                    }
                    for (double v : params.prior) non_finite += !std::isfinite(v);
                }
            }
        }
    }
    EXPECT_GT(probes, 10000u);
    EXPECT_GT(ties, 0u);
    EXPECT_GT(non_finite, 0u);
}

}  // namespace
}  // namespace dfp
