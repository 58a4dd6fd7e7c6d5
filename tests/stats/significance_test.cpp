// Significance filter tests: p-value plumbing against hand-computed tables,
// correction thresholds, MMRFS mask semantics, the sig_test=none bit-identical
// certificate, end-to-end filtering on XOR-with-distractors, cancel/fail-open
// budget semantics, model provenance round-trips, and the dfp.stats.* report
// surface (satellite of DESIGN.md §18).
#include "stats/significance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/status.hpp"
#include "core/measures.hpp"
#include "core/mmrfs.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "ml/svm/svm.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "stats/dist.hpp"

namespace dfp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TransactionDatabase XorDb(std::size_t rows, std::size_t distractors,
                          std::uint64_t seed) {
    const Dataset data = GenerateXor(rows, distractors, 0.0, seed);
    auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

PipelineConfig DefaultConfig() {
    PipelineConfig config;
    config.miner.min_sup_rel = 0.1;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 3;
    return config;
}

std::string FeatureSpaceString(const PatternClassifierPipeline& pipeline) {
    std::ostringstream out;
    EXPECT_TRUE(SaveFeatureSpace(pipeline.feature_space(), out).ok());
    return out.str();
}

// 12-row database whose item-0 feature has the one-vs-rest table
// {a=4, b=1, c=3, d=4} against class 0 (item 0's majority class).
TransactionDatabase HandTableDb() {
    std::vector<std::vector<ItemId>> txns;
    std::vector<ClassLabel> labels;
    for (int i = 0; i < 4; ++i) { txns.push_back({0}); labels.push_back(0); }
    txns.push_back({0});
    labels.push_back(1);
    for (int i = 0; i < 3; ++i) { txns.push_back({1}); labels.push_back(0); }
    for (int i = 0; i < 4; ++i) { txns.push_back({1}); labels.push_back(1); }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels),
                                                 /*num_items=*/2,
                                                 /*num_classes=*/2);
}

Pattern AttachedPattern(const TransactionDatabase& db, Itemset items) {
    std::vector<Pattern> patterns(1);
    patterns[0].items = std::move(items);
    AttachMetadata(db, &patterns);
    return patterns[0];
}

TEST(SignificanceParseTest, NamesRoundTrip) {
    for (SigTest t : {SigTest::kNone, SigTest::kChi2, SigTest::kFisher,
                      SigTest::kOddsRatio}) {
        auto parsed = ParseSigTest(SigTestName(t));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(*parsed, t);
    }
    for (Correction c : {Correction::kNone, Correction::kBonferroni,
                         Correction::kBenjaminiHochberg}) {
        auto parsed = ParseCorrection(CorrectionName(c));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(*parsed, c);
    }
    EXPECT_FALSE(ParseSigTest("chisq").ok());
    EXPECT_FALSE(ParseCorrection("holm").ok());
}

TEST(OneVsRestTableTest, MatchesHandCountedCells) {
    const auto db = HandTableDb();
    const Pattern p = AttachedPattern(db, {0});
    EXPECT_EQ(p.MajorityClass(), 0u);
    const stats::Table2x2 t = OneVsRestTable(StatsOfPattern(db, p), 0);
    EXPECT_EQ(t.a, 4u);
    EXPECT_EQ(t.b, 1u);
    EXPECT_EQ(t.c, 3u);
    EXPECT_EQ(t.d, 4u);
    EXPECT_EQ(t.n(), 12u);
    EXPECT_EQ(t.row1(), 5u);
    EXPECT_EQ(t.col1(), 7u);
}

TEST(PatternPValueTest, DispatchesToTheRightTestOnTheHandTable) {
    const auto db = HandTableDb();
    const Pattern p = AttachedPattern(db, {0});
    const stats::Table2x2 t{4, 1, 3, 4};

    EXPECT_DOUBLE_EQ(
        PatternPValue(SigTest::kChi2, db, p),
        stats::ChiSquareSurvival(stats::ChiSquareStatistic(t), 1.0));
    EXPECT_DOUBLE_EQ(PatternPValue(SigTest::kFisher, db, p),
                     stats::FisherExactGreater(t));
    // Odds: Haldane–Anscombe(+0.5) Wald z against ln(1).
    const double log_or = std::log(4.5) - std::log(1.5) - std::log(3.5) +
                          std::log(4.5);
    const double se =
        std::sqrt(1.0 / 4.5 + 1.0 / 1.5 + 1.0 / 3.5 + 1.0 / 4.5);
    EXPECT_DOUBLE_EQ(PatternPValue(SigTest::kOddsRatio, db, p),
                     stats::NormalSurvival(log_or / se));
    // kNone is "trivially significant".
    EXPECT_EQ(PatternPValue(SigTest::kNone, db, p), 0.0);
}

TEST(PatternPValueTest, DegenerateTablesAreInsignificant) {
    std::vector<std::vector<ItemId>> txns = {{0, 1}, {0, 1}, {0}, {0}};
    std::vector<ClassLabel> labels = {0, 0, 1, 1};
    const auto db = TransactionDatabase::FromTransactions(
        std::move(txns), std::move(labels), 3, 2);
    // Full-support feature (item 0 in every row).
    EXPECT_EQ(PatternPValue(SigTest::kChi2, db, AttachedPattern(db, {0})), 1.0);
    // Zero-support feature (item 2 nowhere).
    EXPECT_EQ(PatternPValue(SigTest::kFisher, db, AttachedPattern(db, {2})),
              1.0);

    // Single-class database: col1 spans everything.
    std::vector<std::vector<ItemId>> txns1 = {{0}, {1}, {0}};
    std::vector<ClassLabel> labels1 = {0, 0, 0};
    const auto db1 = TransactionDatabase::FromTransactions(
        std::move(txns1), std::move(labels1), 2, 1);
    EXPECT_EQ(PatternPValue(SigTest::kChi2, db1, AttachedPattern(db1, {0})),
              1.0);
}

TEST(CorrectionThresholdTest, HandComputedThresholds) {
    const std::vector<double> p = {0.001, 0.01, 0.02, 0.03, 0.2};
    EXPECT_DOUBLE_EQ(CorrectionThreshold(p, Correction::kNone, 0.05), 0.05);
    EXPECT_DOUBLE_EQ(CorrectionThreshold(p, Correction::kBonferroni, 0.05),
                     0.01);
    // BH: largest k with p_(k) <= k·0.05/5 is k=4 (0.03 <= 0.04).
    EXPECT_DOUBLE_EQ(
        CorrectionThreshold(p, Correction::kBenjaminiHochberg, 0.05), 0.03);
    // No discovery → -inf (nothing survives).
    EXPECT_EQ(CorrectionThreshold({0.9, 0.8}, Correction::kBenjaminiHochberg,
                                  0.05),
              -kInf);
    // Empty candidate sets degrade to the raw level for every correction.
    for (Correction c : {Correction::kNone, Correction::kBonferroni,
                         Correction::kBenjaminiHochberg}) {
        EXPECT_DOUBLE_EQ(CorrectionThreshold({}, c, 0.05), 0.05);
    }
}

TEST(RunSignificanceFilterTest, NoneKeepsEverythingWithoutTesting) {
    const auto db = XorDb(100, 2, 1);
    std::vector<Pattern> candidates(3);
    candidates[0].items = {0, 2};
    candidates[1].items = {1, 3};
    candidates[2].items = {0, 3};
    AttachMetadata(db, &candidates);
    SignificanceConfig config;  // test = kNone
    const SignificanceResult r = RunSignificanceFilter(db, candidates, config);
    EXPECT_EQ(r.tested, 0u);
    EXPECT_EQ(r.rejected, 0u);
    EXPECT_TRUE(r.p_values.empty());
    EXPECT_EQ(r.keep, std::vector<char>(3, 1));
}

TEST(RunSignificanceFilterTest, AlphaOneCorrectionNoneKeepsAll) {
    const auto db = XorDb(200, 3, 2);
    PatternClassifierPipeline miner(DefaultConfig());
    auto candidates = miner.MineCandidates(db);
    ASSERT_TRUE(candidates.ok());
    ASSERT_FALSE(candidates->empty());

    SignificanceConfig config;
    config.test = SigTest::kChi2;
    config.alpha = 1.0;
    config.correction = Correction::kNone;
    const SignificanceResult r = RunSignificanceFilter(db, *candidates, config);
    EXPECT_EQ(r.tested, candidates->size());
    EXPECT_EQ(r.rejected, 0u);
    EXPECT_DOUBLE_EQ(r.threshold, 1.0);
    for (double p : r.p_values) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
}

TEST(MmrfsMaskTest, AllOnesMaskIsBitIdenticalToNullMask) {
    const auto db = XorDb(300, 4, 3);
    PatternClassifierPipeline miner(DefaultConfig());
    auto candidates = miner.MineCandidates(db);
    ASSERT_TRUE(candidates.ok());
    ASSERT_FALSE(candidates->empty());

    MmrfsConfig base;
    base.coverage_delta = 3;
    const MmrfsResult unmasked = RunMmrfs(db, *candidates, base);

    const std::vector<char> all_ones(candidates->size(), 1);
    MmrfsConfig masked = base;
    masked.candidate_mask = &all_ones;
    const MmrfsResult with_mask = RunMmrfs(db, *candidates, masked);

    EXPECT_EQ(with_mask.selected, unmasked.selected);
    EXPECT_EQ(with_mask.gains, unmasked.gains);        // bitwise doubles
    EXPECT_EQ(with_mask.relevance, unmasked.relevance);
    EXPECT_EQ(with_mask.coverage, unmasked.coverage);
}

TEST(MmrfsMaskTest, MaskedOutCandidatesAreNeverScoredOrSelected) {
    const auto db = XorDb(300, 4, 4);
    PatternClassifierPipeline miner(DefaultConfig());
    auto candidates = miner.MineCandidates(db);
    ASSERT_TRUE(candidates.ok());
    ASSERT_GT(candidates->size(), 2u);

    // Mask out every even-indexed candidate.
    std::vector<char> mask(candidates->size(), 1);
    for (std::size_t i = 0; i < mask.size(); i += 2) mask[i] = 0;
    MmrfsConfig config;
    config.coverage_delta = 3;
    config.candidate_mask = &mask;
    const MmrfsResult result = RunMmrfs(db, *candidates, config);
    for (std::size_t i : result.selected) {
        EXPECT_EQ(mask[i], 1) << "selected a masked-out candidate " << i;
    }
    for (std::size_t i = 0; i < mask.size(); i += 2) {
        EXPECT_EQ(result.relevance[i], 0.0) << "scored masked-out " << i;
    }
}

TEST(SignificancePipelineTest, KeepAllFilterMatchesUnfilteredFeatureSpace) {
    // chi2 at alpha=1 + correction=none keeps every candidate, so the final
    // feature space must be byte-identical to the sig_test=none path — the
    // provenance line is the only difference in the trained artifact.
    const auto db = XorDb(300, 2, 5);

    PatternClassifierPipeline baseline(DefaultConfig());
    ASSERT_TRUE(baseline.Train(db, std::make_unique<NaiveBayesClassifier>())
                    .ok());
    EXPECT_TRUE(baseline.provenance().empty());

    PipelineConfig filtered_config = DefaultConfig();
    filtered_config.significance.test = SigTest::kChi2;
    filtered_config.significance.alpha = 1.0;
    filtered_config.significance.correction = Correction::kNone;
    PatternClassifierPipeline filtered(filtered_config);
    ASSERT_TRUE(filtered.Train(db, std::make_unique<NaiveBayesClassifier>())
                    .ok());

    EXPECT_EQ(FeatureSpaceString(filtered), FeatureSpaceString(baseline));
    EXPECT_EQ(filtered.stats().num_sig_rejected, 0u);
    ASSERT_FALSE(filtered.provenance().empty());
    EXPECT_EQ(filtered.provenance()[0].first, "sig_test");
    EXPECT_EQ(filtered.provenance()[0].second, "chi2");
}

TEST(SignificancePipelineTest, FiltersDistractorsAndKeepsAccuracy) {
    // XOR with 6 distractor attributes: distractor combinations are frequent
    // (mined) but label-independent, so chi2+BH rejects them while the XOR
    // value pairs survive with astronomically small p.
    const auto db = XorDb(400, 6, 6);

    PipelineConfig config = DefaultConfig();
    config.significance.test = SigTest::kChi2;
    config.significance.alpha = 0.05;
    config.significance.correction = Correction::kBenjaminiHochberg;
    PatternClassifierPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<SvmClassifier>()).ok());
    EXPECT_GT(pipeline.stats().num_sig_rejected, 0u);
    EXPECT_GT(pipeline.Accuracy(db), 0.9);

    // Fisher agrees on this regime (small tables, huge effects).
    PipelineConfig fisher_config = config;
    fisher_config.significance.test = SigTest::kFisher;
    PatternClassifierPipeline fisher(fisher_config);
    ASSERT_TRUE(fisher.Train(db, std::make_unique<SvmClassifier>()).ok());
    EXPECT_GT(fisher.stats().num_sig_rejected, 0u);
    EXPECT_GT(fisher.Accuracy(db), 0.9);
}

TEST(SignificancePipelineTest, PatAllDropsRejectedCandidates) {
    const auto db = XorDb(400, 6, 7);
    PipelineConfig config = DefaultConfig();
    config.feature_selection = false;  // Pat_All
    config.significance.test = SigTest::kChi2;
    config.significance.alpha = 0.05;
    config.significance.correction = Correction::kBenjaminiHochberg;
    PatternClassifierPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<NaiveBayesClassifier>())
                    .ok());
    const auto& stats = pipeline.stats();
    EXPECT_GT(stats.num_sig_rejected, 0u);
    EXPECT_EQ(pipeline.feature_space().num_patterns(),
              stats.num_candidates - stats.num_sig_rejected);
}

TEST(SignificanceBudgetTest, CancelTokenAbortsTheTrain) {
    const auto db = XorDb(200, 2, 8);
    PatternClassifierPipeline miner(DefaultConfig());
    auto candidates = miner.MineCandidates(db);
    ASSERT_TRUE(candidates.ok());
    ASSERT_FALSE(candidates->empty());

    CancelToken cancel;
    cancel.CancelAfterChecks(1);  // fires on the significance scan's first poll
    PipelineConfig config = DefaultConfig();
    config.significance.test = SigTest::kChi2;
    config.budget.cancel = &cancel;
    PatternClassifierPipeline pipeline(config);
    const Status status = pipeline.TrainWithCandidates(
        db, *candidates, std::make_unique<NaiveBayesClassifier>());
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
    EXPECT_EQ(pipeline.budget_report().select_breach, BudgetBreach::kCancelled);
}

TEST(SignificanceBudgetTest, DeadlineFailsOpen) {
    const auto db = XorDb(200, 2, 9);
    PatternClassifierPipeline miner(DefaultConfig());
    auto candidates = miner.MineCandidates(db);
    ASSERT_TRUE(candidates.ok());
    ASSERT_FALSE(candidates->empty());

    SignificanceConfig config;
    config.test = SigTest::kChi2;
    config.budget.time_budget_ms = 0.0;  // already expired
    const SignificanceResult r = RunSignificanceFilter(db, *candidates, config);
    EXPECT_EQ(r.breach, BudgetBreach::kDeadline);
    EXPECT_EQ(r.rejected, 0u);
    EXPECT_EQ(r.threshold, kInf);
    EXPECT_EQ(r.keep, std::vector<char>(candidates->size(), 1));
}

TEST(SignificanceProvenanceTest, RoundTripsThroughModelBundles) {
    const auto db = XorDb(300, 2, 10);
    PipelineConfig config = DefaultConfig();
    config.significance.test = SigTest::kOddsRatio;
    config.significance.alpha = 0.01;
    config.significance.correction = Correction::kBonferroni;
    config.significance.min_odds_ratio = 1.5;
    PatternClassifierPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<NaiveBayesClassifier>())
                    .ok());

    std::ostringstream out;
    ASSERT_TRUE(SavePipelineModel(pipeline, out).ok());
    std::istringstream in(out.str());
    auto loaded = LoadPipelineModel(in);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->provenance().size(), pipeline.provenance().size());
    EXPECT_EQ(loaded->provenance(), pipeline.provenance());
    bool saw_min_or = false;
    for (const auto& [key, value] : loaded->provenance()) {
        if (key == "min_odds_ratio") {
            saw_min_or = true;
            EXPECT_EQ(value, "1.5");
        }
    }
    EXPECT_TRUE(saw_min_or);

    // Unfiltered bundles carry no provenance line and still load (legacy
    // format unchanged byte for byte).
    PatternClassifierPipeline plain(DefaultConfig());
    ASSERT_TRUE(plain.Train(db, std::make_unique<NaiveBayesClassifier>()).ok());
    std::ostringstream plain_out;
    ASSERT_TRUE(SavePipelineModel(plain, plain_out).ok());
    EXPECT_EQ(plain_out.str().find("provenance"), std::string::npos);
    std::istringstream plain_in(plain_out.str());
    auto plain_loaded = LoadPipelineModel(plain_in);
    ASSERT_TRUE(plain_loaded.ok());
    EXPECT_TRUE(plain_loaded->provenance().empty());
}

TEST(SignificanceReportTest, StatsMetricsFlowIntoReportsAndPrometheus) {
    obs::Registry::Get().ResetValues();
    const auto db = XorDb(300, 4, 11);
    PipelineConfig config = DefaultConfig();
    config.significance.test = SigTest::kChi2;
    config.significance.alpha = 0.05;
    config.significance.correction = Correction::kBenjaminiHochberg;
    PatternClassifierPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Train(db, std::make_unique<NaiveBayesClassifier>())
                    .ok());

    const obs::RunReport report = obs::CollectRunReport("sig_report_test");
    const std::string json = obs::ReportToJsonString(report);
    EXPECT_NE(json.find("\"dfp.stats.candidates_tested\""), std::string::npos);
    EXPECT_NE(json.find("\"dfp.stats.rejected\""), std::string::npos);
    EXPECT_NE(json.find("\"dfp.stats.p_value\""), std::string::npos);
    EXPECT_NE(json.find("\"dfp.stats.correction_threshold\""),
              std::string::npos);
    EXPECT_NE(json.find("\"dfp.core.mmrfs.gain\""), std::string::npos);
    EXPECT_NE(json.find("\"dfp.core.pipeline.num_sig_rejected\""),
              std::string::npos);

    const std::string prom = obs::RenderPrometheus(report.metrics);
    EXPECT_NE(prom.find("dfp_stats_candidates_tested"), std::string::npos);
    EXPECT_NE(prom.find("dfp_stats_p_value_bucket"), std::string::npos);
    EXPECT_NE(prom.find("dfp_core_mmrfs_gain_bucket"), std::string::npos);
}

// The filter sorts one copy of the p-values for the BH threshold and the
// dfp.stats.median_p gauge. Both must equal what they were computed from
// separately: CorrectionThreshold over the raw vector, and the nth_element
// median (the upper middle order statistic, averaged with the lower half's
// maximum for an even count), bitwise, for odd and even pool sizes.
TEST(SignificanceMedianTest, OneSortServesThresholdAndMedianGauge) {
    const auto db = XorDb(300, 4, 11);
    PatternClassifierPipeline miner(DefaultConfig());
    auto mined = miner.MineCandidates(db);
    ASSERT_TRUE(mined.ok());
    ASSERT_GT(mined->size(), 8u);
    auto& median_g = obs::Registry::Get().GetGauge("dfp.stats.median_p");
    SignificanceConfig config;
    config.test = SigTest::kChi2;
    config.correction = Correction::kBenjaminiHochberg;
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{8},
          mined->size()}) {
        const std::vector<Pattern> candidates(mined->begin(),
                                              mined->begin() + count);
        const SignificanceResult r =
            RunSignificanceFilter(db, candidates, config);
        EXPECT_EQ(r.threshold, CorrectionThreshold(r.p_values, config.correction,
                                                   config.alpha))
            << count << " candidates";
        std::vector<double> v = r.p_values;
        const auto mid = static_cast<std::ptrdiff_t>(v.size() / 2);
        std::nth_element(v.begin(), v.begin() + mid, v.end());
        double want = v[static_cast<std::size_t>(mid)];
        if (v.size() % 2 == 0) {
            const double lower = *std::max_element(v.begin(), v.begin() + mid);
            want = 0.5 * (lower + want);
        }
        EXPECT_EQ(median_g.value(), want) << count << " candidates";
    }
}

}  // namespace
}  // namespace dfp
