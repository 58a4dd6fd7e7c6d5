#include "data/discretizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"

namespace dfp {
namespace {

Dataset NumericDataset(const std::vector<double>& values,
                       const std::vector<ClassLabel>& labels,
                       std::size_t num_classes = 2) {
    Attribute a{"x", AttributeType::kNumeric, {}};
    std::vector<std::string> class_names;
    for (std::size_t c = 0; c < num_classes; ++c) {
        class_names.push_back(std::string("c").append(std::to_string(c)));
    }
    Dataset data({a}, class_names);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_TRUE(data.AddRow({values[i]}, labels[i]).ok());
    }
    return data;
}

TEST(EqualWidthTest, CutPointsAreEquallySpaced) {
    EqualWidthDiscretizer disc(4);
    const auto cuts = disc.FindCutPoints({0.0, 10.0, 5.0, 2.0}, {}, 2);
    ASSERT_EQ(cuts.size(), 3u);
    EXPECT_NEAR(cuts[0], 2.5, 1e-12);
    EXPECT_NEAR(cuts[1], 5.0, 1e-12);
    EXPECT_NEAR(cuts[2], 7.5, 1e-12);
}

TEST(EqualWidthTest, ConstantColumnYieldsNoCuts) {
    EqualWidthDiscretizer disc(4);
    EXPECT_TRUE(disc.FindCutPoints({3.0, 3.0, 3.0}, {}, 2).empty());
}

TEST(EqualFrequencyTest, BalancedPopulations) {
    EqualFrequencyDiscretizer disc(2);
    std::vector<double> values;
    for (int i = 0; i < 100; ++i) values.push_back(i);
    const auto cuts = disc.FindCutPoints(values, {}, 2);
    ASSERT_EQ(cuts.size(), 1u);
    // Half of the values on each side.
    const auto below = static_cast<std::size_t>(
        std::count_if(values.begin(), values.end(),
                      [&cuts](double v) { return v < cuts[0]; }));
    EXPECT_NEAR(static_cast<double>(below), 50.0, 2.0);
}

TEST(EqualFrequencyTest, HandlesHeavyTies) {
    EqualFrequencyDiscretizer disc(4);
    // 90% of mass at one value: duplicate cuts must be suppressed.
    std::vector<double> values(90, 5.0);
    for (int i = 0; i < 10; ++i) values.push_back(10.0 + i);
    const auto cuts = disc.FindCutPoints(values, {}, 2);
    for (std::size_t i = 1; i < cuts.size(); ++i) EXPECT_GT(cuts[i], cuts[i - 1]);
}

TEST(MdlTest, FindsObviousBoundary) {
    // Class 0 below 10, class 1 above 20: one clean boundary.
    std::vector<double> values;
    std::vector<ClassLabel> labels;
    for (int i = 0; i < 30; ++i) {
        values.push_back(i * 0.3);
        labels.push_back(0);
        values.push_back(20.0 + i * 0.3);
        labels.push_back(1);
    }
    MdlDiscretizer disc;
    const auto cuts = disc.FindCutPoints(values, labels, 2);
    ASSERT_EQ(cuts.size(), 1u);
    EXPECT_GT(cuts[0], 8.0);
    EXPECT_LT(cuts[0], 21.0);
}

TEST(MdlTest, RejectsUninformativeColumn) {
    // Labels independent of the value: MDL should refuse to split.
    Rng rng(3);
    std::vector<double> values;
    std::vector<ClassLabel> labels;
    for (int i = 0; i < 200; ++i) {
        values.push_back(rng.Uniform());
        labels.push_back(static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2})));
    }
    MdlDiscretizer disc;
    EXPECT_TRUE(disc.FindCutPoints(values, labels, 2).empty());
}

TEST(MdlTest, PureColumnNoCuts) {
    MdlDiscretizer disc;
    const auto cuts =
        disc.FindCutPoints({1.0, 2.0, 3.0, 4.0}, {1, 1, 1, 1}, 2);
    EXPECT_TRUE(cuts.empty());
}

TEST(MdlTest, MultiClassThreeBands) {
    std::vector<double> values;
    std::vector<ClassLabel> labels;
    for (int i = 0; i < 40; ++i) {
        values.push_back(i * 0.1);
        labels.push_back(0);
        values.push_back(10.0 + i * 0.1);
        labels.push_back(1);
        values.push_back(20.0 + i * 0.1);
        labels.push_back(2);
    }
    MdlDiscretizer disc;
    const auto cuts = disc.FindCutPoints(values, labels, 3);
    EXPECT_EQ(cuts.size(), 2u);
}

TEST(DiscretizationModelTest, BinOfRespectsIntervals) {
    DiscretizationModel model;
    model.cut_points = {{1.0, 2.0}};
    EXPECT_EQ(model.BinOf(0, 0.5), 0u);
    EXPECT_EQ(model.BinOf(0, 1.0), 1u);  // cuts[i-1] <= v < cuts[i]
    EXPECT_EQ(model.BinOf(0, 1.5), 1u);
    EXPECT_EQ(model.BinOf(0, 2.0), 2u);
    EXPECT_EQ(model.BinOf(0, 99.0), 2u);
}

TEST(DiscretizerTest, FitApplyMakesFullyCategorical) {
    std::vector<double> values;
    std::vector<ClassLabel> labels;
    for (int i = 0; i < 50; ++i) {
        values.push_back(i);
        labels.push_back(i < 25 ? 0 : 1);
    }
    Dataset data = NumericDataset(values, labels);
    MdlDiscretizer disc;
    const Dataset out = disc.FitApply(data);
    EXPECT_TRUE(out.IsFullyCategorical());
    EXPECT_EQ(out.num_rows(), data.num_rows());
    // Labels preserved.
    for (std::size_t r = 0; r < out.num_rows(); ++r) {
        EXPECT_EQ(out.label(r), data.label(r));
    }
}

TEST(DiscretizerTest, ApplyToUnseenDataUsesTrainCuts) {
    std::vector<double> values;
    std::vector<ClassLabel> labels;
    for (int i = 0; i < 50; ++i) {
        values.push_back(i);
        labels.push_back(i < 25 ? 0 : 1);
    }
    Dataset train = NumericDataset(values, labels);
    MdlDiscretizer disc;
    const DiscretizationModel model = disc.Fit(train);
    // Out-of-range test values map to the extreme bins, not out of range.
    Dataset test = NumericDataset({-100.0, 1000.0}, {0, 1});
    const Dataset out = Discretizer::Apply(model, test);
    EXPECT_TRUE(out.IsFullyCategorical());
    EXPECT_EQ(out.Code(0, 0), 0u);
    EXPECT_EQ(out.Code(1, 0), out.attribute(0).arity() - 1);
}

TEST(DiscretizerTest, CategoricalColumnsPassThrough) {
    Attribute cat{"c", AttributeType::kCategorical, {"a", "b"}};
    Attribute num{"n", AttributeType::kNumeric, {}};
    Dataset data({cat, num}, {"c0", "c1"});
    for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(
            data.AddRow({static_cast<double>(i % 2), static_cast<double>(i)},
                        i < 15 ? 0u : 1u)
                .ok());
    }
    MdlDiscretizer disc;
    const Dataset out = disc.FitApply(data);
    EXPECT_EQ(out.attribute(0).values, (std::vector<std::string>{"a", "b"}));
    for (std::size_t r = 0; r < out.num_rows(); ++r) {
        EXPECT_EQ(out.Code(r, 0), data.Code(r, 0));
    }
}

}  // namespace
}  // namespace dfp
