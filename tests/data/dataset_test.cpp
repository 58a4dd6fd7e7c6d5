#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include "data/encoder.hpp"
#include "data/transaction_db.hpp"

namespace dfp {
namespace {

Dataset MakeToy() {
    Attribute color{"color", AttributeType::kCategorical, {"red", "green"}};
    Attribute weight{"weight", AttributeType::kNumeric, {}};
    Dataset data({color, weight}, {"no", "yes"});
    EXPECT_TRUE(data.AddRow({0, 1.5}, 0).ok());
    EXPECT_TRUE(data.AddRow({1, 2.5}, 1).ok());
    EXPECT_TRUE(data.AddRow({1, 3.5}, 1).ok());
    return data;
}

TEST(DatasetTest, BasicShape) {
    const Dataset data = MakeToy();
    EXPECT_EQ(data.num_rows(), 3u);
    EXPECT_EQ(data.num_attributes(), 2u);
    EXPECT_EQ(data.num_classes(), 2u);
    EXPECT_EQ(data.Code(0, 0), 0u);
    EXPECT_EQ(data.Code(1, 0), 1u);
    EXPECT_DOUBLE_EQ(data.Value(2, 1), 3.5);
    EXPECT_EQ(data.label(0), 0u);
    EXPECT_EQ(data.label(2), 1u);
}

TEST(DatasetTest, AddRowValidatesArity) {
    Dataset data = MakeToy();
    EXPECT_FALSE(data.AddRow({0}, 0).ok());            // too few values
    EXPECT_FALSE(data.AddRow({0, 1.0, 2.0}, 0).ok());  // too many
}

TEST(DatasetTest, AddRowValidatesCategoricalCode) {
    Dataset data = MakeToy();
    EXPECT_FALSE(data.AddRow({2, 1.0}, 0).ok());   // color code out of range
    EXPECT_FALSE(data.AddRow({-1, 1.0}, 0).ok());  // negative code
}

TEST(DatasetTest, AddRowValidatesLabel) {
    Dataset data = MakeToy();
    EXPECT_FALSE(data.AddRow({0, 1.0}, 2).ok());
}

TEST(DatasetTest, IsFullyCategorical) {
    const Dataset mixed = MakeToy();
    EXPECT_FALSE(mixed.IsFullyCategorical());
    Attribute a{"a", AttributeType::kCategorical, {"x", "y"}};
    Dataset pure({a}, {"c0", "c1"});
    EXPECT_TRUE(pure.IsFullyCategorical());
}

TEST(DatasetTest, ClassCountsAndPriors) {
    // The learners read a dataset's class counts and priors off its
    // transaction database; they follow the dataset's labels.
    Attribute color{"color", AttributeType::kCategorical, {"red", "green"}};
    Dataset data({color}, {"no", "yes"});
    ASSERT_TRUE(data.AddRow({0}, 0).ok());
    ASSERT_TRUE(data.AddRow({1}, 1).ok());
    ASSERT_TRUE(data.AddRow({1}, 1).ok());
    const auto encoder = ItemEncoder::FromSchema(data);
    ASSERT_TRUE(encoder.ok()) << encoder.status();
    const TransactionDatabase db = TransactionDatabase::FromDataset(data, *encoder);
    EXPECT_EQ(db.labels(), data.labels());
    EXPECT_EQ(db.ClassCounts(), (std::vector<std::size_t>{1, 2}));
    const auto priors = db.ClassPriors();
    ASSERT_EQ(priors.size(), 2u);
    EXPECT_NEAR(priors[0], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(priors[1], 2.0 / 3.0, 1e-12);
}

TEST(DatasetTest, EmptyDatasetBehaves) {
    Dataset data({}, {"a", "b"});
    EXPECT_EQ(data.num_rows(), 0u);
    EXPECT_EQ(data.num_classes(), 2u);
    EXPECT_TRUE(data.labels().empty());
    EXPECT_TRUE(data.IsFullyCategorical());
}

}  // namespace
}  // namespace dfp
