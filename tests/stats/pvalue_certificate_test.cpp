// Certificate for the allocation-free p-value path: PatternPValue reads the
// database's class totals and the pattern's class counts in place, and must
// return the owned-vector reference's double bitwise (==) for all three
// tests. Seeded count tables cover 1 to 5 classes (one class is a
// single-class database), empty classes, patterns never or always present
// (zero margins) and class counts longer or shorter than the database's
// class range, so the majority class can lie beyond it.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"
#include "stats/significance.hpp"
#include "testutil/reference_measures.hpp"

namespace dfp {
namespace {

// A database of `n` empty rows whose labels draw from `m` classes, some of
// which may stay empty. Only the class totals matter to the p-values.
TransactionDatabase LabelledDb(std::size_t n, std::size_t m, Rng& rng) {
    std::vector<ClassLabel> labels(n);
    const std::size_t used = 1 + rng.UniformInt(m);
    for (auto& l : labels) l = static_cast<ClassLabel>(rng.UniformInt(used));
    return TransactionDatabase::FromTransactions(
        std::vector<std::vector<ItemId>>(n), std::move(labels), 1, m);
}

// A pattern with hand-set metadata: per-class hits drawn within each class's
// total, optionally with one extra class past the database's range that
// holds the majority, or with the counts cut short.
Pattern CountedPattern(const TransactionDatabase& db, std::size_t shape,
                       Rng& rng) {
    const std::vector<std::size_t>& totals = db.ClassCounts();
    Pattern p;
    p.cover = BitVector(db.num_transactions());
    p.class_counts.resize(totals.size());
    for (std::size_t c = 0; c < totals.size(); ++c) {
        p.class_counts[c] =
            shape == 1 ? 0
            : shape == 2 ? totals[c]
                         : rng.UniformInt(totals[c] + 1);
    }
    if (shape == 3) {
        std::size_t most = 0;
        for (std::size_t c : p.class_counts) most = std::max(most, c);
        p.class_counts.push_back(most + 1);  // majority beyond the range
    } else if (shape == 4 && p.class_counts.size() > 1) {
        p.class_counts.pop_back();
    }
    for (std::size_t c : p.class_counts) p.support += c;
    p.support = std::min(p.support, db.num_transactions());
    return p;
}

TEST(PValueCertificateTest, ViewsEqualOwnedReferenceBitwise) {
    Rng rng(57);
    std::size_t nontrivial = 0;
    for (int round = 0; round < 300; ++round) {
        const std::size_t m = 1 + rng.UniformInt(5);
        const std::size_t n = 1 + rng.UniformInt(120);
        const TransactionDatabase db = LabelledDb(n, m, rng);
        for (std::size_t shape = 0; shape < 5; ++shape) {
            const Pattern p = CountedPattern(db, shape, rng);
            SCOPED_TRACE(testing::Message()
                         << "round " << round << " classes " << m << " n " << n
                         << " shape " << shape << " support " << p.support);
            for (const SigTest test : {SigTest::kNone, SigTest::kChi2,
                                       SigTest::kFisher, SigTest::kOddsRatio}) {
                for (const double min_odds : {1.0, 1.5}) {
                    const double got = PatternPValue(test, db, p, min_odds);
                    const double want =
                        testutil::ReferencePatternPValue(test, db, p, min_odds);
                    EXPECT_EQ(got, want) << SigTestName(test);
                    if (got > 0.0 && got < 1.0) ++nontrivial;
                }
            }
        }
    }
    // The tables are not all degenerate: most p-values are proper.
    EXPECT_GT(nontrivial, 1000u);
}

}  // namespace
}  // namespace dfp
