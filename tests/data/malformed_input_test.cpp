// Malformed-input corpus: every reader must fail with a typed Status
// (ParseError / InvalidArgument), never crash or index out of bounds.
#include <gtest/gtest.h>

#include <sstream>

#include "data/csv.hpp"

namespace dfp {
namespace {

Result<Dataset> Parse(const std::string& text, CsvOptions options = {}) {
    std::istringstream in(text);
    return ReadCsv(in, options);
}

TEST(MalformedCsvTest, EmptyInput) {
    const auto r = Parse("");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(MalformedCsvTest, WhitespaceOnlyInput) {
    const auto r = Parse("\n   \n\t\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(MalformedCsvTest, HeaderButNoDataRows) {
    const auto r = Parse("a,b,class\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(MalformedCsvTest, SingleColumnRejected) {
    CsvOptions options;
    options.has_header = false;
    const auto r = Parse("1\n2\n3\n", options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(MalformedCsvTest, TruncatedRowRejected) {
    const auto r = Parse("a,b,class\n1,2,x\n1,y\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(MalformedCsvTest, OverlongRowRejected) {
    const auto r = Parse("a,b,class\n1,2,x\n1,2,3,y\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(MalformedCsvTest, ClassColumnOutOfRange) {
    CsvOptions options;
    options.class_column = 5;  // resolved against 3 columns: out of range
    const auto r = Parse("a,b,class\n1,2,x\n", options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

    options.class_column = -4;
    const auto r2 = Parse("a,b,class\n1,2,x\n", options);
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

TEST(MalformedCsvTest, NonNumericCellDemotesColumnToCategorical) {
    // A stray non-numeric cell must not crash numeric parsing: type inference
    // demotes the whole column to categorical instead.
    const auto r = Parse("a,b,class\n1.5,2,x\noops,3,y\n");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->attribute(0).type, AttributeType::kCategorical);
    EXPECT_EQ(r->attribute(1).type, AttributeType::kNumeric);
    EXPECT_EQ(r->num_rows(), 2u);
}

TEST(MalformedCsvTest, CrlfLineEndingsParse) {
    const auto r = Parse("a,b,class\r\n1,2,x\r\n3,4,y\r\n");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->num_rows(), 2u);
    ASSERT_EQ(r->class_names().size(), 2u);
    // The trailing \r must be trimmed, not folded into the class name.
    EXPECT_EQ(r->class_names()[0], "x");
    EXPECT_EQ(r->class_names()[1], "y");
}

TEST(MalformedCsvTest, DuplicateClassLabelsShareOneCode) {
    const auto r = Parse("a,b,class\n1,2,x\n3,4,x\n5,6,y\n");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->num_classes(), 2u);
    EXPECT_EQ(r->label(0), r->label(1));
    EXPECT_NE(r->label(0), r->label(2));
}

}  // namespace
}  // namespace dfp
