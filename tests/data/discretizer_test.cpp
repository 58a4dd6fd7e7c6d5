#include "data/discretizer.hpp"

#include <gtest/gtest.h>

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

TEST(MdlTest, ConstantColumnYieldsNoCuts) {
    // No two distinct values, so there is no boundary to cut at, whatever the
    // labels say.
    MdlDiscretizer disc;
    EXPECT_TRUE(
        disc.FindCutPoints(std::vector<double>(10, 3.0),
                           {0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, 2)
            .empty());
}

TEST(MdlTest, SplitsBalancedPopulationsAtTheirBoundary) {
    std::vector<double> values;
    std::vector<ClassLabel> labels;
    for (int i = 0; i < 100; ++i) {
        values.push_back(i);
        labels.push_back(i < 50 ? 0 : 1);
    }
    MdlDiscretizer disc;
    const auto cuts = disc.FindCutPoints(values, labels, 2);
    ASSERT_EQ(cuts.size(), 1u);
    // Half of the values on each side.
    std::size_t below = 0;
    for (double v : values) below += v < cuts[0] ? 1 : 0;
    EXPECT_EQ(below, 50u);
}

TEST(MdlTest, HeavyTiesStayInOneBin) {
    // 90% of the rows share one value (mixed labels); the rest are class 1.
    // The only admissible cut lies between the tied block and the tail.
    std::vector<double> values(90, 5.0);
    std::vector<ClassLabel> labels(90, 0);
    for (std::size_t i = 80; i < 90; ++i) labels[i] = 1;
    for (int i = 0; i < 10; ++i) {
        values.push_back(10.0 + i);
        labels.push_back(1);
    }
    MdlDiscretizer disc;
    const auto cuts = disc.FindCutPoints(values, labels, 2);
    ASSERT_EQ(cuts.size(), 1u);
    EXPECT_GT(cuts[0], 5.0);
    EXPECT_LT(cuts[0], 10.0);
}

TEST(MdlTest, CutsDoNotDependOnRowOrder) {
    std::vector<double> values;
    std::vector<ClassLabel> labels;
    for (int i = 0; i < 40; ++i) {
        for (ClassLabel c = 0; c < 3; ++c) {
            values.push_back(10.0 * c + i * 0.1);
            labels.push_back(c);
        }
    }
    MdlDiscretizer disc;
    const auto want = disc.FindCutPoints(values, labels, 3);
    ASSERT_EQ(want.size(), 2u);
    std::vector<std::size_t> order(values.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng(5);
    for (int round = 0; round < 5; ++round) {
        rng.Shuffle(order);
        std::vector<double> shuffled_values;
        std::vector<ClassLabel> shuffled_labels;
        for (std::size_t i : order) {
            shuffled_values.push_back(values[i]);
            shuffled_labels.push_back(labels[i]);
        }
        EXPECT_EQ(disc.FindCutPoints(shuffled_values, shuffled_labels, 3), want);
    }
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
    const Dataset out = MdlDiscretizer::Apply(model, test);
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
