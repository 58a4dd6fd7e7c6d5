// Malformed model-bundle hardening: LoadPipelineModel must answer every
// corrupt input with an error Status (kInvalidArgument / kParseError /
// kNotFound) — never abort, throw, or over-allocate. The mutations cover the
// failure classes the serving reload path is exposed to: truncation, item ids
// outside the declared universe, duplicate patterns, non-numeric weights, and
// hostile count fields that would otherwise drive multi-gigabyte allocations.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/dtree/c45.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "ml/svm/svm.hpp"

namespace dfp {
namespace {

template <typename LearnerT>
std::string TrainedBundle(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.rows = 200;
    spec.classes = 2;
    spec.attributes = 8;
    spec.arity = 3;
    spec.seed = seed;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    const auto db = TransactionDatabase::FromDataset(data, *encoder);
    PipelineConfig config;
    config.miner.min_sup_rel = 0.12;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    PatternClassifierPipeline pipeline(config);
    EXPECT_TRUE(pipeline.Train(db, std::make_unique<LearnerT>()).ok());
    std::stringstream out;
    EXPECT_TRUE(SavePipelineModel(pipeline, out).ok());
    return out.str();
}

/// Loading must fail with a Status — reaching this point at all already
/// certifies "no abort"; the asserts pin the error contract.
void ExpectRejected(const std::string& bundle, const std::string& what) {
    SCOPED_TRACE(what);
    std::stringstream in(bundle);
    auto loaded = LoadPipelineModel(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_FALSE(loaded.status().message().empty());
}

std::string ReplaceFirst(std::string s, const std::string& from,
                         const std::string& to) {
    const auto pos = s.find(from);
    EXPECT_NE(pos, std::string::npos) << "mutation anchor '" << from << "'";
    if (pos != std::string::npos) s.replace(pos, from.size(), to);
    return s;
}

class CorruptModelTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        svm_bundle_ = new std::string(TrainedBundle<SvmClassifier>(31));
        nb_bundle_ = new std::string(TrainedBundle<NaiveBayesClassifier>(32));
        c45_bundle_ = new std::string(TrainedBundle<C45Classifier>(33));
    }
    static void TearDownTestSuite() {
        delete svm_bundle_;
        delete nb_bundle_;
        delete c45_bundle_;
    }

    static std::string* svm_bundle_;
    static std::string* nb_bundle_;
    static std::string* c45_bundle_;
};

std::string* CorruptModelTest::svm_bundle_ = nullptr;
std::string* CorruptModelTest::nb_bundle_ = nullptr;
std::string* CorruptModelTest::c45_bundle_ = nullptr;

TEST_F(CorruptModelTest, SanityBundlesLoadClean) {
    for (const std::string* bundle : {svm_bundle_, nb_bundle_, c45_bundle_}) {
        std::stringstream in(*bundle);
        auto loaded = LoadPipelineModel(in);
        ASSERT_TRUE(loaded.ok()) << loaded.status();
    }
}

TEST_F(CorruptModelTest, TruncatedAtEveryStage) {
    const std::string& bundle = *svm_bundle_;
    // Chop at a spread of offsets: inside the header, inside the feature
    // space, inside the learner section, and with exactly the final token
    // missing (cutting mid-token would leave a shorter-but-parseable number).
    const auto last_token_char = bundle.find_last_not_of(" \n");
    ASSERT_NE(last_token_char, std::string::npos);
    const auto last_token_start =
        bundle.find_last_of(" \n", last_token_char) + 1;
    const std::size_t cuts[] = {0,
                                5,
                                bundle.find('\n'),
                                bundle.find('\n') + 10,
                                bundle.size() / 4,
                                bundle.size() / 2,
                                3 * bundle.size() / 4,
                                last_token_start};
    for (std::size_t cut : cuts) {
        ExpectRejected(bundle.substr(0, cut),
                       "truncated at byte " + std::to_string(cut));
    }
}

TEST_F(CorruptModelTest, HeaderMutations) {
    ExpectRejected(ReplaceFirst(*nb_bundle_, "dfp-model", "dfp-modle"),
                   "misspelled magic");
    ExpectRejected(ReplaceFirst(*nb_bundle_, "v1", "v9"), "future version");
    ExpectRejected(ReplaceFirst(*nb_bundle_, " nb\n", " martian\n"),
                   "unknown learner type id");
}

TEST_F(CorruptModelTest, FeatureSpaceMutations) {
    const std::string& bundle = *nb_bundle_;
    // Parse the real "feature-space <items> <patterns>" header so the textual
    // surgery below never depends on the exact mined pattern count.
    std::size_t num_items = 0;
    std::size_t num_patterns = 0;
    const auto space_pos = bundle.find("feature-space ");
    ASSERT_NE(space_pos, std::string::npos);
    ASSERT_EQ(std::sscanf(bundle.c_str() + space_pos, "feature-space %zu %zu",
                          &num_items, &num_patterns),
              2);
    ASSERT_GE(num_patterns, 1u);
    const std::string space_header = "feature-space " + std::to_string(num_items) +
                                     " " + std::to_string(num_patterns);

    // Item id at/above the declared universe: shrink the universe to 1 so
    // every pattern (length ≥ 2, hence containing an item ≥ 1) is out of range.
    ExpectRejected(
        ReplaceFirst(bundle, space_header,
                     "feature-space 1 " + std::to_string(num_patterns)),
        "item id >= universe");

    // Hostile counts: a lying pattern total and an absurd universe. Both must
    // be rejected (by EOF or the sanity cap) without a matching allocation.
    ExpectRejected(
        ReplaceFirst(bundle, space_header,
                     "feature-space " + std::to_string(num_items) + " 999999"),
        "pattern count beyond data");
    ExpectRejected(
        ReplaceFirst(bundle, "feature-space ", "feature-space 99999999999 "),
        "universe above the sanity cap");

    // Structural pattern damage. Locate the first pattern line: it follows
    // the feature-space header line.
    const auto header_end = bundle.find('\n', space_pos);
    ASSERT_NE(header_end, std::string::npos);
    const auto line_end = bundle.find('\n', header_end + 1);
    const std::string pattern_line =
        bundle.substr(header_end + 1, line_end - header_end - 1);

    // Duplicate pattern: list the first pattern twice, bumping the count.
    {
        std::string dup = bundle;
        dup.insert(line_end + 1, pattern_line + "\n");
        dup = ReplaceFirst(dup, space_header,
                           "feature-space " + std::to_string(num_items) + " " +
                               std::to_string(num_patterns + 1));
        ExpectRejected(dup, "duplicate pattern id");
    }
    // Non-ascending items inside a pattern (also covers duplicates-in-pattern).
    {
        const auto first_space = pattern_line.find(' ');
        const auto second_space = pattern_line.find(' ', first_space + 1);
        const std::string first_item =
            pattern_line.substr(first_space + 1, second_space - first_space - 1);
        std::string shuffled = pattern_line;
        // Repeat the first item where the second should be: "2 10 17" → "2 10 10".
        shuffled = pattern_line.substr(0, second_space + 1) + first_item +
                   pattern_line.substr(pattern_line.find(' ', second_space + 1) ==
                                               std::string::npos
                                           ? pattern_line.size()
                                           : pattern_line.find(' ', second_space + 1));
        std::string bad = bundle;
        bad.replace(header_end + 1, pattern_line.size(), shuffled);
        ExpectRejected(bad, "non-ascending pattern items");
    }
    // Pattern shorter than 2 items.
    {
        std::string bad = bundle;
        bad.replace(header_end + 1, pattern_line.find(' '), "1");
        ExpectRejected(bad, "pattern of length < 2");
    }
    // Non-numeric where an item id belongs.
    {
        std::string bad = bundle;
        bad.replace(header_end + 1 + pattern_line.find(' ') + 1, 1, "x");
        ExpectRejected(bad, "non-numeric item id");
    }
}

TEST_F(CorruptModelTest, LearnerWeightMutations) {
    // Non-numeric weights in each learner's parameter block: corrupt the
    // final token of the bundle (deep inside the learner section) from its
    // FIRST character, so no parseable numeric prefix survives.
    for (const std::string* bundle : {svm_bundle_, nb_bundle_, c45_bundle_}) {
        std::string bad = *bundle;
        const auto last_token_char = bad.find_last_not_of(" \n");
        ASSERT_NE(last_token_char, std::string::npos);
        bad[bad.find_last_of(" \n", last_token_char) + 1] = '?';
        ExpectRejected(bad, "non-numeric learner parameter");
    }
}

TEST_F(CorruptModelTest, HostileLearnerCounts) {
    // Count fields that would drive huge allocations must hit the sanity cap
    // (kInvalidArgument), not bad_alloc/abort. Hand-built minimal bundles.
    const std::string space = "feature-space 4 1\n2 0 1\n";
    ExpectRejected("dfp-model v1 nb\n" + space +
                       "nb-model 99999999 99999999 1.0\n",
                   "NB matrix above cap");
    ExpectRejected("dfp-model v1 c4.5\n" + space +
                       "c45-model 2 0 184467440737095516\n",
                   "c4.5 node count above cap");
    ExpectRejected("dfp-model v1 svm\n" + space +
                       "svm-model 0 0.5 0 3 1 2 1\n0 1 0.0 99999999999 ",
                   "SVM weight count above cap");
    ExpectRejected("dfp-model v1 svm\n" + space +
                       "svm-model 0 0.5 0 3 1 2 1\n0 1 0.0 1 0.5 20000000 20000000\n",
                   "SVM sv matrix above cap");
}

TEST_F(CorruptModelTest, NegativeCountsRejected) {
    const std::string space = "feature-space 4 1\n2 0 1\n";
    ExpectRejected("dfp-model v1 nb\n" + space + "nb-model -3 5 1.0\n",
                   "negative class count");
    ExpectRejected("dfp-model v1 c4.5\n" + space + "c45-model 2 0 -7\n",
                   "negative node count");
}

// Hand-made bundles over a 2-feature space ("feature-space 2 0": two items,
// no patterns). Each learner section below loads clean; the mutations of it
// must not.
const std::string kTwoWide = "feature-space 2 0\n";
const std::string kC45 =
    "c45-model 2 0 3\n"
    "0 0 10 2 1 0.5 1 2\n"
    "1 0 5 1 0 0 -1 -1\n"
    "1 1 5 1 0 0 -1 -1\n";
const std::string kSvm =
    "svm-model 1 0.5 0 3 1 2 1\n"
    "0 1 0.25 0 2 2\n"
    "0.5 1 0 \n"
    "-0.5 0 1 \n";

void ExpectLoads(const std::string& bundle) {
    std::stringstream in(bundle);
    auto loaded = LoadPipelineModel(in);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_LT(loaded->Predict({0, 1}), 2u);
}

TEST(CorruptModelWidthTest, LearnerWiderThanTheSpaceRejected) {
    // 100 columns of NB parameters over a 2-wide space: Predict would read
    // 98 columns past the encoded row.
    std::string nb = "nb-model 2 100 1.0\n-0.7 -0.7\n";
    for (int i = 0; i < 2 * 2 * 100; ++i) nb += "-0.5 ";
    ExpectRejected("dfp-model v1 nb\n" + kTwoWide + nb + "\n", "NB cols 100 > dim 2");
    // SVM: a primal weight vector or support vectors of another width.
    ExpectRejected("dfp-model v1 svm\n" + kTwoWide +
                       ReplaceFirst(kSvm, "0 1 0.25 0 2 2", "0 1 0.25 3 1 1 1 2 2"),
                   "SVM w of width 3");
    ExpectRejected("dfp-model v1 svm\n" + kTwoWide +
                       ReplaceFirst(ReplaceFirst(ReplaceFirst(kSvm, "0 2 2", "0 2 3"),
                                                 "0.5 1 0 ", "0.5 1 0 0 "),
                                    "-0.5 0 1 ", "-0.5 0 1 0 "),
                   "SVM support vectors of width 3");
    // A C4.5 node testing feature 1,000,000 of the 2-wide space.
    ExpectRejected("dfp-model v1 c4.5\n" + kTwoWide +
                       ReplaceFirst(kC45, "0 0 10 2 1 0.5", "0 0 10 2 1000000 0.5"),
                   "C4.5 split feature beyond the space");
}

TEST(CorruptModelWidthTest, HandMadeBundlesLoadClean) {
    ExpectLoads("dfp-model v1 c4.5\n" + kTwoWide + kC45);
    ExpectLoads("dfp-model v1 svm\n" + kTwoWide + kSvm);
}

TEST(CorruptModelWidthTest, C45TreeThatCannotTerminateRejected) {
    // A non-leaf root whose children are itself: Predict would loop forever.
    ExpectRejected("dfp-model v1 c4.5\n" + kTwoWide +
                       ReplaceFirst(kC45, "0.5 1 2", "0.5 0 0"),
                   "C4.5 root is its own child");
    // A child at or above its parent's index, even one that is in range.
    ExpectRejected("dfp-model v1 c4.5\n" + kTwoWide +
                       "c45-model 2 0 3\n"
                       "0 0 10 2 1 0.5 2 1\n"
                       "0 0 5 1 0 0.5 0 2\n"
                       "1 1 5 1 0 0 -1 -1\n",
                   "C4.5 child points back to the root");
    ExpectRejected("dfp-model v1 c4.5\n" + kTwoWide +
                       ReplaceFirst(kC45, "1 1 5 1 0 0 -1 -1", "1 7 5 1 0 0 -1 -1"),
                   "C4.5 leaf label beyond num_classes");
}

TEST(CorruptModelWidthTest, SvmNonBinarySupportVectorAndBadClassRejected) {
    ExpectRejected("dfp-model v1 svm\n" + kTwoWide +
                       ReplaceFirst(kSvm, "0.5 1 0 ", "0.5 0.5 0 "),
                   "SVM support-vector entry 0.5");
    ExpectRejected("dfp-model v1 svm\n" + kTwoWide +
                       ReplaceFirst(kSvm, "0 1 0.25", "0 5 0.25"),
                   "SVM machine class beyond num_classes");
}

}  // namespace
}  // namespace dfp
