#include "data/synthetic.hpp"

#include <gtest/gtest.h>

#include "data/csv.hpp"

namespace dfp {
namespace {

TEST(SyntheticTest, ShapeMatchesSpec) {
    SyntheticSpec spec;
    spec.rows = 200;
    spec.classes = 3;
    spec.attributes = 8;
    spec.arity = 4;
    spec.numeric_fraction = 0.25;
    const Dataset data = GenerateSynthetic(spec);
    EXPECT_EQ(data.num_rows(), 200u);
    EXPECT_EQ(data.num_classes(), 3u);
    EXPECT_EQ(data.num_attributes(), 8u);
    std::size_t numeric = 0;
    for (std::size_t a = 0; a < 8; ++a) {
        if (data.attribute(a).type == AttributeType::kNumeric) {
            ++numeric;
        } else {
            EXPECT_EQ(data.attribute(a).arity(), 4u);
        }
    }
    EXPECT_EQ(numeric, 2u);  // 25% of 8
}

TEST(SyntheticTest, DeterministicInSeed) {
    SyntheticSpec spec;
    spec.rows = 100;
    spec.seed = 99;
    const Dataset a = GenerateSynthetic(spec);
    const Dataset b = GenerateSynthetic(spec);
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
        EXPECT_EQ(a.label(r), b.label(r));
        for (std::size_t at = 0; at < a.num_attributes(); ++at) {
            EXPECT_DOUBLE_EQ(a.Value(r, at), b.Value(r, at));
        }
    }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
    SyntheticSpec spec;
    spec.rows = 100;
    spec.seed = 1;
    const Dataset a = GenerateSynthetic(spec);
    spec.seed = 2;
    const Dataset b = GenerateSynthetic(spec);
    std::size_t diffs = 0;
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
        for (std::size_t at = 0; at < a.num_attributes(); ++at) {
            diffs += (a.Value(r, at) != b.Value(r, at));
        }
    }
    EXPECT_GT(diffs, 50u);
}

TEST(SyntheticTest, AllClassesRepresented) {
    SyntheticSpec spec;
    spec.rows = 500;
    spec.classes = 4;
    const Dataset data = GenerateSynthetic(spec);
    std::vector<std::size_t> counts(4, 0);
    for (ClassLabel y : data.labels()) ++counts[y];
    for (std::size_t c = 0; c < 4; ++c) EXPECT_GT(counts[c], 0u);
}

TEST(SyntheticTest, ImbalanceSkewsPrior) {
    SyntheticSpec spec;
    spec.rows = 2000;
    spec.classes = 2;
    spec.class_imbalance = 0.5;
    spec.label_noise = 0.0;
    const Dataset data = GenerateSynthetic(spec);
    std::vector<std::size_t> counts(2, 0);
    for (ClassLabel y : data.labels()) ++counts[y];
    EXPECT_GT(counts[0], counts[1] * 3 / 2);
}

TEST(XorTest, NoSingleFeatureIsInformativeButXorIs) {
    const Dataset data = GenerateXor(2000, 2, 0.0, 5);
    EXPECT_EQ(data.num_attributes(), 4u);
    // Label equals x XOR y exactly.
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
        const int x = static_cast<int>(data.Value(r, 0));
        const int y = static_cast<int>(data.Value(r, 1));
        EXPECT_EQ(data.label(r), static_cast<ClassLabel>(x ^ y));
    }
    // Each single feature alone predicts ~50%.
    for (std::size_t a = 0; a < 2; ++a) {
        std::size_t match = 0;
        for (std::size_t r = 0; r < data.num_rows(); ++r) {
            match += (static_cast<ClassLabel>(data.Value(r, a)) == data.label(r));
        }
        const double rate = static_cast<double>(match) /
                            static_cast<double>(data.num_rows());
        EXPECT_NEAR(rate, 0.5, 0.05);
    }
}

TEST(XorTest, NoiseFlipsLabels) {
    const Dataset data = GenerateXor(5000, 0, 0.2, 5);
    std::size_t flipped = 0;
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
        const int x = static_cast<int>(data.Value(r, 0));
        const int y = static_cast<int>(data.Value(r, 1));
        flipped += (data.label(r) != static_cast<ClassLabel>(x ^ y));
    }
    EXPECT_NEAR(static_cast<double>(flipped) / 5000.0, 0.2, 0.03);
}

TEST(RegistryTest, UciSpecsHavePublishedShapes) {
    const auto& specs = UciTableSpecs();
    EXPECT_EQ(specs.size(), 19u);
    // Spot-check a few published dataset shapes.
    auto find = [&specs](const std::string& name) -> const SyntheticSpec& {
        for (const auto& s : specs) {
            if (s.name == name) return s;
        }
        ADD_FAILURE() << "missing spec " << name;
        return specs.front();
    };
    EXPECT_EQ(find("austral").rows, 690u);
    EXPECT_EQ(find("austral").classes, 2u);
    EXPECT_EQ(find("iris").rows, 150u);
    EXPECT_EQ(find("iris").classes, 3u);
    EXPECT_EQ(find("sonar").attributes, 60u);
    EXPECT_EQ(find("zoo").classes, 7u);
}

TEST(RegistryTest, ScalabilitySpecs) {
    EXPECT_EQ(ChessSpec().rows, 3196u);
    EXPECT_EQ(ChessSpec().classes, 2u);
    EXPECT_EQ(WaveformSpec().rows, 5000u);
    EXPECT_EQ(WaveformSpec().classes, 3u);
    EXPECT_EQ(LetterSpec().rows, 20000u);
    EXPECT_EQ(LetterSpec().classes, 26u);
}

TEST(RegistryTest, LookupByName) {
    EXPECT_TRUE(GetSpecByName("breast").ok());
    EXPECT_TRUE(GetSpecByName("chess").ok());
    const auto missing = GetSpecByName("nope");
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dfp
