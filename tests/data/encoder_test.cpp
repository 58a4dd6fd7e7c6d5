#include "data/encoder.hpp"

#include <gtest/gtest.h>

namespace dfp {
namespace {

Dataset CategoricalToy() {
    Attribute a{"a", AttributeType::kCategorical, {"x", "y"}};
    Attribute b{"b", AttributeType::kCategorical, {"p", "q", "r"}};
    Dataset data({a, b}, {"c0", "c1"});
    EXPECT_TRUE(data.AddRow({0, 2}, 0).ok());
    EXPECT_TRUE(data.AddRow({1, 0}, 1).ok());
    return data;
}

TEST(ItemEncoderTest, DenseItemIds) {
    const Dataset data = CategoricalToy();
    auto enc = ItemEncoder::FromSchema(data);
    ASSERT_TRUE(enc.ok());
    EXPECT_EQ(enc->num_items(), 5u);  // 2 + 3
    EXPECT_EQ(enc->Encode(0, 0), 0u);
    EXPECT_EQ(enc->Encode(0, 1), 1u);
    EXPECT_EQ(enc->Encode(1, 0), 2u);
    EXPECT_EQ(enc->Encode(1, 2), 4u);
}

TEST(ItemEncoderTest, EncodedItemNamesItsAttributeAndValue) {
    const Dataset data = CategoricalToy();
    auto enc = ItemEncoder::FromSchema(data);
    ASSERT_TRUE(enc.ok());
    for (std::size_t a = 0; a < data.num_attributes(); ++a) {
        const Attribute& attr = data.attribute(a);
        for (std::uint32_t v = 0; v < attr.arity(); ++v) {
            EXPECT_EQ(enc->ItemName(enc->Encode(a, v)), attr.name + "=" + attr.values[v]);
        }
    }
}

TEST(ItemEncoderTest, ItemNames) {
    const Dataset data = CategoricalToy();
    auto enc = ItemEncoder::FromSchema(data);
    ASSERT_TRUE(enc.ok());
    EXPECT_EQ(enc->ItemName(0), "a=x");
    EXPECT_EQ(enc->ItemName(4), "b=r");
}

TEST(ItemEncoderTest, EncodeRowIsSortedOneItemPerAttribute) {
    const Dataset data = CategoricalToy();
    auto enc = ItemEncoder::FromSchema(data);
    ASSERT_TRUE(enc.ok());
    const auto row0 = enc->EncodeRow(data, 0);
    EXPECT_EQ(row0, (std::vector<ItemId>{0, 4}));  // a=x, b=r
    const auto row1 = enc->EncodeRow(data, 1);
    EXPECT_EQ(row1, (std::vector<ItemId>{1, 2}));  // a=y, b=p
}

TEST(ItemEncoderTest, ConstantAttributesProduceNoItems) {
    Attribute a{"a", AttributeType::kCategorical, {"x", "y"}};
    Attribute constant{"const", AttributeType::kCategorical, {"only"}};
    Attribute b{"b", AttributeType::kCategorical, {"p", "q"}};
    Dataset data({a, constant, b}, {"c0", "c1"});
    ASSERT_TRUE(data.AddRow({1, 0, 0}, 0).ok());
    auto enc = ItemEncoder::FromSchema(data);
    ASSERT_TRUE(enc.ok());
    EXPECT_EQ(enc->num_items(), 4u);  // "const=only" omitted
    EXPECT_TRUE(enc->IsSkipped(1));
    EXPECT_FALSE(enc->IsSkipped(0));
    const auto row = enc->EncodeRow(data, 0);
    EXPECT_EQ(row, (std::vector<ItemId>{1, 2}));  // a=y, b=p
    // The remaining items still name the right attributes.
    EXPECT_EQ(enc->ItemName(2), "b=p");
}

TEST(ItemEncoderTest, RejectsNumericSchema) {
    Attribute n{"n", AttributeType::kNumeric, {}};
    Dataset data({n}, {"c0", "c1"});
    const auto enc = ItemEncoder::FromSchema(data);
    EXPECT_FALSE(enc.ok());
    EXPECT_EQ(enc.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dfp
