#include "common/string_util.hpp"

#include <gtest/gtest.h>

namespace dfp {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
    EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(Split("a,", ','), (std::vector<std::string>{"a", ""}));
}

TEST(TrimTest, RemovesEdgesOnly) {
    EXPECT_EQ(Trim("  x y  "), "x y");
    EXPECT_EQ(Trim("\t\nabc\r "), "abc");
    EXPECT_EQ(Trim(""), "");
    EXPECT_EQ(Trim("   "), "");
}

TEST(ParseDoubleTest, AcceptsNumbers) {
    double v = 0.0;
    EXPECT_TRUE(ParseDouble("3.25", &v));
    EXPECT_DOUBLE_EQ(v, 3.25);
    EXPECT_TRUE(ParseDouble(" -1e3 ", &v));
    EXPECT_DOUBLE_EQ(v, -1000.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
    double v = 0.0;
    EXPECT_FALSE(ParseDouble("abc", &v));
    EXPECT_FALSE(ParseDouble("1.2x", &v));
    EXPECT_FALSE(ParseDouble("", &v));
    EXPECT_FALSE(ParseDouble("nan", &v));  // non-finite rejected
}

TEST(ParseIntTest, AcceptsAndRejects) {
    long v = 0;
    EXPECT_TRUE(ParseInt("42", &v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(ParseInt(" -7 ", &v));
    EXPECT_EQ(v, -7);
    EXPECT_FALSE(ParseInt("4.5", &v));
    EXPECT_FALSE(ParseInt("x", &v));
}

TEST(StrFormatTest, FormatsLikePrintf) {
    EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
    EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
    EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace dfp
