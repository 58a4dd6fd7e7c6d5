// Adoption-path integration: CSV text in, trained pattern classifier out.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "data/csv.hpp"
#include "exp/experiment.hpp"
#include "ml/dtree/c45.hpp"

namespace dfp {
namespace {

// Builds a CSV with a numeric column, a categorical column and a class that
// depends on their combination.
std::string MakeCsvText(std::size_t rows) {
    std::ostringstream out;
    out << "temp,sky,play\n";
    for (std::size_t i = 0; i < rows; ++i) {
        const bool hot = (i % 3) == 0;
        const bool sunny = (i % 2) == 0;
        const double temp = hot ? 30.0 + (i % 5) : 10.0 + (i % 5);
        const char* sky = sunny ? "sunny" : "rain";
        // Play only when sunny AND not hot — a conjunction.
        const char* play = (sunny && !hot) ? "yes" : "no";
        out << temp << ',' << sky << ',' << play << '\n';
    }
    return out.str();
}

TEST(CsvPipelineTest, CsvThroughFullPipeline) {
    std::istringstream in(MakeCsvText(240));
    auto data = ReadCsv(in);
    ASSERT_TRUE(data.ok()) << data.status();

    const TransactionDatabase db = DatasetToTransactions(*data);
    EXPECT_EQ(db.num_transactions(), 240u);
    EXPECT_GE(db.num_items(), 3u);

    PipelineConfig config;
    config.miner.min_sup_rel = 0.1;
    config.miner.max_pattern_len = 3;
    config.mmrfs.coverage_delta = 2;
    PatternClassifierPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<C45Classifier>()).ok());
    // The concept is deterministic, so training accuracy should be ~perfect.
    EXPECT_GT(pipeline.Accuracy(db), 0.95);
}

TEST(CsvPipelineTest, RowOrderDoesNotChangeItemNames) {
    // The same rows in reverse order get other value codes and item ids, but
    // each row must encode to the same named items and class.
    const std::string text = MakeCsvText(120);
    std::istringstream in(text);
    std::string header;
    std::getline(in, header);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::string reversed_text = header + "\n";
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
        reversed_text += *it + "\n";
    }

    std::istringstream forward_in(text);
    std::istringstream reversed_in(reversed_text);
    auto forward = ReadCsv(forward_in);
    auto reversed = ReadCsv(reversed_in);
    ASSERT_TRUE(forward.ok()) << forward.status();
    ASSERT_TRUE(reversed.ok()) << reversed.status();
    // "sunny" comes first one way, "rain" the other.
    EXPECT_NE(forward->attribute(1).values, reversed->attribute(1).values);

    const TransactionDatabase a = DatasetToTransactions(*forward);
    const TransactionDatabase b = DatasetToTransactions(*reversed);
    ASSERT_EQ(a.num_transactions(), lines.size());
    ASSERT_EQ(b.num_transactions(), lines.size());
    EXPECT_EQ(a.num_items(), b.num_items());
    const auto names = [](const TransactionDatabase& db, std::size_t t) {
        std::set<std::string> out;
        for (const ItemId item : db.transaction(t)) out.insert(db.ItemName(item));
        return out;
    };
    for (std::size_t t = 0; t < lines.size(); ++t) {
        const std::size_t u = lines.size() - 1 - t;
        EXPECT_EQ(names(a, t), names(b, u)) << "row " << t;
        EXPECT_EQ(forward->class_names()[a.label(t)],
                  reversed->class_names()[b.label(u)])
            << "row " << t;
    }
}

}  // namespace
}  // namespace dfp
