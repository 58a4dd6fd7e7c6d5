#include "data/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace dfp {
namespace {

TEST(CsvTest, ParsesMixedColumns) {
    std::istringstream in(
        "color,weight,label\n"
        "red,1.5,yes\n"
        "green,2.5,no\n"
        "red,3.0,yes\n");
    auto data = ReadCsv(in);
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(data->num_rows(), 3u);
    EXPECT_EQ(data->num_attributes(), 2u);
    EXPECT_EQ(data->attribute(0).type, AttributeType::kCategorical);
    EXPECT_EQ(data->attribute(1).type, AttributeType::kNumeric);
    EXPECT_EQ(data->num_classes(), 2u);
    EXPECT_EQ(data->class_names()[0], "yes");
    EXPECT_EQ(data->label(1), 1u);
    EXPECT_DOUBLE_EQ(data->Value(2, 1), 3.0);
}

TEST(CsvTest, CategoricalCodesFollowFirstAppearance) {
    std::istringstream in(
        "color,size,label\n"
        "red,s,yes\n"
        "green,m,no\n"
        "red,m,yes\n"
        "blue,s,no\n");
    auto data = ReadCsv(in);
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(data->attribute(0).values,
              (std::vector<std::string>{"red", "green", "blue"}));
    EXPECT_EQ(data->attribute(1).values, (std::vector<std::string>{"s", "m"}));
    // A repeated value shares its first code.
    const std::vector<std::uint32_t> colors = {0, 1, 0, 2};
    const std::vector<std::uint32_t> sizes = {0, 1, 1, 0};
    for (std::size_t r = 0; r < data->num_rows(); ++r) {
        EXPECT_EQ(data->Code(r, 0), colors[r]) << "row " << r;
        EXPECT_EQ(data->Code(r, 1), sizes[r]) << "row " << r;
    }
    EXPECT_TRUE(data->IsFullyCategorical());
}

TEST(CsvTest, CellsAreTrimmedBeforeCoding) {
    std::istringstream in("color,label\n red ,yes\nred, yes\n  green,no \n");
    auto data = ReadCsv(in);
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(data->attribute(0).values, (std::vector<std::string>{"red", "green"}));
    EXPECT_EQ(data->Code(0, 0), data->Code(1, 0));
    EXPECT_EQ(data->class_names(), (std::vector<std::string>{"yes", "no"}));
    EXPECT_EQ(data->label(0), data->label(1));
}

TEST(CsvTest, NumericClassColumnIsCategorical) {
    std::istringstream in("x,label\n1.5,1\n2.5,0\n3.5,1\n");
    auto data = ReadCsv(in);
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(data->attribute(0).type, AttributeType::kNumeric);
    // Class names in first-appearance order, whatever they parse as.
    EXPECT_EQ(data->class_names(), (std::vector<std::string>{"1", "0"}));
    EXPECT_EQ(data->labels(), (std::vector<ClassLabel>{0, 1, 0}));
}

TEST(CsvTest, ClassColumnInTheMiddleKeepsEveryCell) {
    std::istringstream in(
        "w,color,label,h,size\n"
        "1.5,red,yes,10,s\n"
        "2.5,blue,no,20,m\n"
        "3.5,red,no,30,m\n");
    CsvOptions options;
    options.class_column = 2;
    auto data = ReadCsv(in, options);
    ASSERT_TRUE(data.ok()) << data.status();
    ASSERT_EQ(data->num_attributes(), 4u);
    EXPECT_EQ(data->attribute(0).name, "w");
    EXPECT_EQ(data->attribute(2).name, "h");
    EXPECT_EQ(data->attribute(3).name, "size");
    const double w[] = {1.5, 2.5, 3.5};
    const double h[] = {10, 20, 30};
    const std::uint32_t color[] = {0, 1, 0};
    const std::uint32_t size[] = {0, 1, 1};
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_DOUBLE_EQ(data->Value(r, 0), w[r]) << "row " << r;
        EXPECT_EQ(data->Code(r, 1), color[r]) << "row " << r;
        EXPECT_DOUBLE_EQ(data->Value(r, 2), h[r]) << "row " << r;
        EXPECT_EQ(data->Code(r, 3), size[r]) << "row " << r;
    }
    EXPECT_EQ(data->labels(), (std::vector<ClassLabel>{0, 1, 1}));
}

// CSV text of `data` with the class column last: value names for
// categorical cells, 17 significant digits for numeric ones.
std::string RenderCsv(const Dataset& data) {
    std::ostringstream out;
    out.precision(17);
    for (std::size_t a = 0; a < data.num_attributes(); ++a) {
        out << data.attribute(a).name << ',';
    }
    out << "label\n";
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
        for (std::size_t a = 0; a < data.num_attributes(); ++a) {
            if (data.attribute(a).type == AttributeType::kNumeric) {
                out << data.Value(r, a);
            } else {
                out << data.attribute(a).values[data.Code(r, a)];
            }
            out << ',';
        }
        out << data.class_names()[data.label(r)] << '\n';
    }
    return out.str();
}

TEST(CsvTest, WriteReadRoundTrip) {
    std::istringstream in(
        "color,weight,label\n"
        "red,0.1,yes\n"
        "green,-3.25,no\n"
        "blue,1e-5,yes\n"
        "green,12345.678901234567,maybe\n");
    auto data = ReadCsv(in);
    ASSERT_TRUE(data.ok()) << data.status();

    std::istringstream back(RenderCsv(*data));
    auto reread = ReadCsv(back);
    ASSERT_TRUE(reread.ok()) << reread.status();
    EXPECT_EQ(reread->num_rows(), data->num_rows());
    EXPECT_EQ(reread->class_names(), data->class_names());
    EXPECT_EQ(reread->labels(), data->labels());
    ASSERT_EQ(reread->num_attributes(), data->num_attributes());
    for (std::size_t a = 0; a < data->num_attributes(); ++a) {
        EXPECT_EQ(reread->attribute(a).name, data->attribute(a).name);
        EXPECT_EQ(reread->attribute(a).type, data->attribute(a).type);
        EXPECT_EQ(reread->attribute(a).values, data->attribute(a).values);
        for (std::size_t r = 0; r < data->num_rows(); ++r) {
            // Codes and doubles both compare exactly.
            EXPECT_EQ(reread->Value(r, a), data->Value(r, a))
                << "row " << r << " attribute " << a;
        }
    }
}

TEST(CsvTest, EmptyCellMakesColumnCategorical) {
    // An empty cell does not parse as a number, so its column is
    // categorical and "" is one of its values.
    std::istringstream in("x,y,label\n1.5,2,yes\n,3,no\n1.5,4,no\n");
    auto data = ReadCsv(in);
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(data->attribute(0).type, AttributeType::kCategorical);
    EXPECT_EQ(data->attribute(0).values, (std::vector<std::string>{"1.5", ""}));
    EXPECT_EQ(data->Code(1, 0), 1u);
    EXPECT_EQ(data->Code(2, 0), 0u);
    EXPECT_EQ(data->attribute(1).type, AttributeType::kNumeric);
    EXPECT_DOUBLE_EQ(data->Value(1, 1), 3.0);
}

TEST(CsvTest, HeaderlessInput) {
    std::istringstream in("1,2,a\n3,4,b\n");
    CsvOptions options;
    options.has_header = false;
    auto data = ReadCsv(in, options);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->num_rows(), 2u);
    EXPECT_EQ(data->attribute(0).name, "col0");
}

TEST(CsvTest, ClassColumnSelection) {
    std::istringstream in("label,x\nyes,1\nno,2\n");
    CsvOptions options;
    options.class_column = 0;
    auto data = ReadCsv(in, options);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->num_attributes(), 1u);
    EXPECT_EQ(data->attribute(0).name, "x");
    EXPECT_EQ(data->class_names()[0], "yes");
}

TEST(CsvTest, NegativeClassColumnCountsFromEnd) {
    std::istringstream in("x,label\n1,yes\n2,no\n");
    CsvOptions options;
    options.class_column = -1;
    auto data = ReadCsv(in, options);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->class_names()[1], "no");
}

TEST(CsvTest, RejectsRaggedRows) {
    std::istringstream in("a,b,c\n1,2,3\n1,2\n");
    const auto data = ReadCsv(in);
    EXPECT_FALSE(data.ok());
    EXPECT_EQ(data.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, RejectsEmptyInput) {
    std::istringstream in("");
    EXPECT_FALSE(ReadCsv(in).ok());
}

TEST(CsvTest, RejectsSingleColumn) {
    std::istringstream in("only\nx\n");
    EXPECT_FALSE(ReadCsv(in).ok());
}

TEST(CsvTest, SkipsBlankLines) {
    std::istringstream in("x,label\n\n1,yes\n\n2,no\n\n");
    auto data = ReadCsv(in);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->num_rows(), 2u);
}

TEST(CsvTest, CustomDelimiter) {
    std::istringstream in("x;label\n1;yes\n2;no\n");
    CsvOptions options;
    options.delimiter = ';';
    auto data = ReadCsv(in, options);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->num_rows(), 2u);
}

TEST(CsvTest, LoadCsvFileParsesLikeReadCsv) {
    const std::string text = "color,weight,label\nred,1.5,yes\ngreen,2.5,no\n";
    const std::string path = ::testing::TempDir() + "dfp_csv_test_load.csv";
    {
        std::ofstream out(path);
        out << text;
    }
    CsvOptions options;
    options.class_column = 0;
    auto loaded = LoadCsvFile(path, options);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    std::istringstream in(text);
    auto parsed = ReadCsv(in, options);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(loaded->num_rows(), 2u);
    EXPECT_EQ(loaded->class_names(), parsed->class_names());
    EXPECT_EQ(loaded->labels(), parsed->labels());
    ASSERT_EQ(loaded->num_attributes(), parsed->num_attributes());
    for (std::size_t a = 0; a < parsed->num_attributes(); ++a) {
        EXPECT_EQ(loaded->attribute(a).name, parsed->attribute(a).name);
        EXPECT_EQ(loaded->attribute(a).values, parsed->attribute(a).values);
        for (std::size_t r = 0; r < parsed->num_rows(); ++r) {
            EXPECT_EQ(loaded->Value(r, a), parsed->Value(r, a));
        }
    }
}

TEST(CsvTest, LoadMissingFileIsNotFound) {
    const auto data = LoadCsvFile("/nonexistent/path.csv");
    EXPECT_FALSE(data.ok());
    EXPECT_EQ(data.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dfp
