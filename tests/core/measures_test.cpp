#include "core/measures.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "testutil/reference_measures.hpp"

namespace dfp {
namespace {

// Owned counts that convert to the FeatureStats view the measures take.
struct TestStats : testutil::OwnedFeatureStats {
    operator FeatureStats() const { return View(); }
};

TestStats MakeStats(std::size_t n, std::vector<std::size_t> class_totals,
                    std::vector<std::size_t> class_support) {
    TestStats s;
    s.n = n;
    s.class_totals = std::move(class_totals);
    s.class_support = std::move(class_support);
    s.support = 0;
    for (auto c : s.class_support) s.support += c;
    return s;
}

std::vector<std::size_t> Copy(std::span<const std::size_t> counts) {
    return {counts.begin(), counts.end()};
}

TEST(MeasuresTest, PerfectFeatureHasFullGain) {
    // Feature == class indicator: IG = H(C) = 1 bit for balanced classes.
    const auto s = MakeStats(8, {4, 4}, {4, 0});
    EXPECT_NEAR(InformationGain(s), 1.0, 1e-12);
}

TEST(MeasuresTest, IndependentFeatureHasZeroGain) {
    // Feature hits half of each class: no information.
    const auto s = MakeStats(8, {4, 4}, {2, 2});
    EXPECT_NEAR(InformationGain(s), 0.0, 1e-12);
}

TEST(MeasuresTest, HandComputedGain) {
    // n=10, p(c1)=0.4; feature covers 5 rows, 4 of class 1.
    const auto s = MakeStats(10, {6, 4}, {1, 4});
    const double h_c = BinaryEntropy(0.4);
    const double h_cond = 0.5 * BinaryEntropy(4.0 / 5.0) + 0.5 * BinaryEntropy(0.0);
    EXPECT_NEAR(InformationGain(s), h_c - h_cond, 1e-12);
}

TEST(MeasuresTest, ClassEntropyMatchesDistribution) {
    const auto s = MakeStats(8, {4, 4}, {4, 0});
    EXPECT_NEAR(ClassEntropy(s), 1.0, 1e-12);
    const auto s3 = MakeStats(12, {4, 4, 4}, {1, 1, 1});
    EXPECT_NEAR(ClassEntropy(s3), std::log2(3.0), 1e-12);
}

TEST(MeasuresTest, FisherScoreZeroWhenIndependent) {
    const auto s = MakeStats(8, {4, 4}, {2, 2});
    EXPECT_NEAR(FisherScore(s), 0.0, 1e-12);
}

TEST(MeasuresTest, FisherScoreInfiniteOnPerfectSeparation) {
    const auto s = MakeStats(8, {4, 4}, {4, 0});
    EXPECT_TRUE(std::isinf(FisherScore(s)));
}

TEST(MeasuresTest, FisherMatchesPaperEquation5) {
    // Eq. 5: Fr = θ(p−q)² / (p(1−p)(1−θ) − θ(p−q)²), with p = P(c=1),
    // q = P(c=1 | x=1). Use n=20, p=0.5, θ=0.4, q=0.75.
    const auto s = MakeStats(20, {10, 10}, {2, 6});
    const double p = 0.5;
    const double theta = 0.4;
    const double q = 0.75;
    const double z = theta * (p - q) * (p - q);
    const double expected = z / (p * (1 - p) * (1 - theta) - z);
    EXPECT_NEAR(FisherScore(s), expected, 1e-12);
}

TEST(MeasuresTest, GiniGainPositiveForInformativeFeature) {
    EXPECT_GT(GiniGain(MakeStats(8, {4, 4}, {4, 0})), 0.4);
    EXPECT_NEAR(GiniGain(MakeStats(8, {4, 4}, {2, 2})), 0.0, 1e-12);
}

TEST(MeasuresTest, RelevanceDispatch) {
    const auto s = MakeStats(8, {4, 4}, {3, 1});
    EXPECT_DOUBLE_EQ(Relevance(RelevanceMeasure::kInfoGain, s), InformationGain(s));
    EXPECT_DOUBLE_EQ(Relevance(RelevanceMeasure::kFisher, s), FisherScore(s));
    EXPECT_DOUBLE_EQ(Relevance(RelevanceMeasure::kGini, s), GiniGain(s));
}

TEST(MeasuresTest, StatsOfCoverAgainstDatabase) {
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 1}, {0}, {1}, {0, 1}}, {0, 0, 1, 1}, 2, 2);
    std::vector<std::size_t> class_support;
    const auto s = StatsOfCover(db, db.ItemCover(1), &class_support);
    EXPECT_EQ(s.n, 4u);
    EXPECT_EQ(s.support, 3u);
    EXPECT_EQ(Copy(s.class_totals), (std::vector<std::size_t>{2, 2}));
    EXPECT_EQ(Copy(s.class_support), (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(s.class_support.data(), class_support.data());
}

TEST(MeasuresTest, StatsOfPatternUsesAttachedMetadata) {
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 1}, {0}, {1}, {0, 1}}, {0, 0, 1, 1}, 2, 2);
    std::vector<Pattern> patterns(1);
    patterns[0].items = {0, 1};
    AttachMetadata(db, &patterns);
    const auto s = StatsOfPattern(db, patterns[0]);
    EXPECT_EQ(s.support, 2u);
    EXPECT_EQ(Copy(s.class_support), (std::vector<std::size_t>{1, 1}));
    // Views, not copies: the database's totals and the pattern's counts.
    EXPECT_EQ(s.class_totals.data(), db.ClassCounts().data());
    EXPECT_EQ(s.class_support.data(), patterns[0].class_counts.data());
    EXPECT_NEAR(InformationGain(s), 0.0, 1e-12);
}

TEST(MeasuresTest, ZeroRowsAreSafe) {
    const std::size_t zeros[2] = {0, 0};
    FeatureStats s;
    s.class_totals = zeros;
    s.class_support = zeros;
    EXPECT_DOUBLE_EQ(InformationGain(s), 0.0);
    EXPECT_DOUBLE_EQ(FisherScore(s), 0.0);
    EXPECT_DOUBLE_EQ(GiniGain(s), 0.0);
}

// Certificate: the view-based measures return the owned-vector formulas
// doubles bitwise (==) on seeded count tables. The tables cover 1 to 5
// classes (one class is a single-class database), empty classes, a feature
// that is never or always on (zero margins) and an empty database.
TEST(MeasuresCertificateTest, ViewsEqualOwnedFormulasBitwise) {
    Rng rng(41);
    std::size_t tables = 0;
    for (int round = 0; round < 400; ++round) {
        const std::size_t m = 1 + rng.UniformInt(5);
        TestStats s;
        s.class_totals.resize(m);
        s.class_support.resize(m);
        const std::size_t shape = rng.UniformInt(4);  // 0 random, 1 none, 2 all, 3 empty db
        for (std::size_t c = 0; c < m; ++c) {
            // Roughly one class in four is empty.
            s.class_totals[c] =
                shape == 3 || rng.UniformInt(4) == 0 ? 0 : rng.UniformInt(60);
            s.class_support[c] =
                shape == 1 ? 0
                : shape == 2 ? s.class_totals[c]
                             : rng.UniformInt(s.class_totals[c] + 1);
        }
        s.n = 0;
        s.support = 0;
        for (std::size_t c = 0; c < m; ++c) {
            s.n += s.class_totals[c];
            s.support += s.class_support[c];
        }
        SCOPED_TRACE(testing::Message() << "round " << round << " classes " << m
                                        << " n " << s.n << " support " << s.support);
        const FeatureStats view = s;
        EXPECT_EQ(InformationGain(view), testutil::ReferenceInformationGain(s));
        EXPECT_EQ(FisherScore(view), testutil::ReferenceFisherScore(s));
        EXPECT_EQ(GiniGain(view), testutil::ReferenceGiniGain(s));
        EXPECT_EQ(ClassEntropy(view), EntropyCounts(s.class_totals));
        for (ClassLabel c = 0; c <= m; ++c) {  // c == m is past the range
            const stats::Table2x2 got = OneVsRestTable(view, c);
            const stats::Table2x2 want = testutil::ReferenceOneVsRestTable(s, c);
            EXPECT_EQ(got.a, want.a);
            EXPECT_EQ(got.b, want.b);
            EXPECT_EQ(got.c, want.c);
            EXPECT_EQ(got.d, want.d);
        }
        ++tables;
    }
    EXPECT_EQ(tables, 400u);
}

// The same certificate over real patterns: every mined pattern's stats view
// the database's totals and the pattern's counts, and score like the copies.
TEST(MeasuresCertificateTest, PatternStatsEqualOwnedFormulasBitwise) {
    for (const std::uint64_t seed : {3u, 17u, 29u}) {
        const auto db = TransactionDatabase::FromTransactions(
            [seed] {
                Rng rng(seed);
                std::vector<std::vector<ItemId>> rows(90);
                for (auto& row : rows) {
                    for (ItemId i = 0; i < 9; ++i) {
                        if (rng.Bernoulli(0.45)) row.push_back(i);
                    }
                }
                return rows;
            }(),
            [seed] {
                Rng rng(seed + 1);
                std::vector<ClassLabel> labels(90);
                for (auto& l : labels) l = static_cast<ClassLabel>(rng.UniformInt(3));
                return labels;
            }(),
            9, 3);
        std::vector<Pattern> patterns;
        for (ItemId a = 0; a < 9; ++a) {
            for (ItemId b = a + 1; b < 9; ++b) {
                Pattern p;
                p.items = {a, b};
                patterns.push_back(std::move(p));
            }
        }
        AttachMetadata(db, &patterns);
        for (const Pattern& p : patterns) {
            const testutil::OwnedFeatureStats owned =
                testutil::OwnedStatsOfPattern(db, p);
            const FeatureStats view = StatsOfPattern(db, p);
            EXPECT_EQ(InformationGain(view),
                      testutil::ReferenceInformationGain(owned));
            EXPECT_EQ(FisherScore(view), testutil::ReferenceFisherScore(owned));
            EXPECT_EQ(GiniGain(view), testutil::ReferenceGiniGain(owned));
        }
    }
}

}  // namespace
}  // namespace dfp
