// Certificate for PatternMatchIndex: EncodeInto equals the row-by-row
// subset-scan reference (testutil/reference_encoder) word for word, and
// MatchInto returns exactly the ids of the patterns the scan finds contained,
// on the shapes the cleared-counter pass and the per-word bit building must
// get right: repeated items, empty rows, items at or above the index
// universe, pattern items at or above num_items, item blocks off the 64-bit
// word grid, pattern blocks ending mid-word, and one Scratch reused across
// indexes of different sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/feature_space.hpp"
#include "core/pattern_match_index.hpp"
#include "testutil/reference_encoder.hpp"

namespace dfp {
namespace {

Pattern P(Itemset items) {
    Pattern p;
    p.items = std::move(items);
    return p;
}

/// `count` distinct sorted itemsets of min_len..max_len items below `universe`.
std::vector<Pattern> RandomPatterns(Rng& rng, std::size_t count,
                                    std::size_t universe, std::size_t min_len,
                                    std::size_t max_len) {
    std::vector<Pattern> patterns;
    while (patterns.size() < count) {
        const std::size_t len =
            min_len + static_cast<std::size_t>(rng.UniformInt(max_len - min_len + 1));
        Pattern p;
        while (p.items.size() < len) {
            const ItemId item = static_cast<ItemId>(rng.UniformInt(universe));
            if (std::ranges::find(p.items, item) == p.items.end()) p.items.push_back(item);
        }
        std::ranges::sort(p.items);
        if (std::ranges::find_if(patterns, [&](const Pattern& q) {
                return q.items == p.items;
            }) == patterns.end()) {
            patterns.push_back(std::move(p));
        }
    }
    return patterns;
}

/// Sorted transactions of 0..max_len items below `universe`, with repeats
/// (items skewed low so patterns are often contained); some rows are empty.
std::vector<std::vector<ItemId>> RandomTransactions(Rng& rng, std::size_t rows,
                                                    std::size_t universe,
                                                    std::size_t max_len) {
    std::vector<std::vector<ItemId>> txns(rows);
    for (std::vector<ItemId>& txn : txns) {
        const std::size_t len = rng.UniformInt(max_len + 1);
        for (std::size_t k = 0; k < len; ++k) {
            const std::size_t a = rng.UniformInt(universe);
            const std::size_t b = rng.UniformInt(universe);
            txn.push_back(static_cast<ItemId>(std::min(a, b)));
            if (rng.Bernoulli(0.2)) txn.push_back(txn.back());  // a repeat
        }
        std::ranges::sort(txn);
    }
    return txns;
}

/// The ids of the patterns contained in `txn`, ascending.
std::vector<std::uint32_t> ScanMatch(const std::vector<Pattern>& patterns,
                                     const std::vector<ItemId>& txn) {
    std::vector<std::uint32_t> ids;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
        if (std::includes(txn.begin(), txn.end(), patterns[p].items.begin(),
                          patterns[p].items.end())) {
            ids.push_back(static_cast<std::uint32_t>(p));
        }
    }
    return ids;
}

/// EncodeInto and MatchInto of every transaction against the scan, through
/// one caller-supplied Scratch.
void ExpectMatchesScan(const FeatureSpace& space,
                       const std::vector<std::vector<ItemId>>& txns,
                       PatternMatchIndex::Scratch* scratch) {
    const PatternMatchIndex& index = space.matcher();
    ASSERT_EQ(index.dim(), space.dim());
    for (std::size_t t = 0; t < txns.size(); ++t) {
        index.EncodeInto(txns[t], scratch);
        ASSERT_EQ(scratch->encoded, testutil::ScanEncode(space, txns[t]))
            << "EncodeInto row " << t;
        index.MatchInto(txns[t], scratch);
        ASSERT_EQ(scratch->matched, ScanMatch(space.patterns(), txns[t]))
            << "MatchInto row " << t;
    }
}

TEST(PatternMatchIndexTest, EqualsScanAcrossWordShapes) {
    std::size_t matched = 0;
    // Item blocks on and off the word grid; pattern blocks that end mid-word,
    // on a word edge, or span several words from a mid-word start.
    for (const std::size_t num_items : {0u, 1u, 30u, 63u, 64u, 65u, 100u, 128u}) {
        for (const std::size_t num_patterns : {0u, 1u, 33u, 63u, 64u, 65u, 200u}) {
            SCOPED_TRACE("items " + std::to_string(num_items) + " patterns " +
                         std::to_string(num_patterns));
            Rng rng(num_items * 1000 + num_patterns + 1);
            // Pattern items range past num_items (the items-less space has
            // only such items); transactions range past the index universe.
            const std::size_t pattern_universe = std::max<std::size_t>(num_items, 12) + 5;
            const FeatureSpace space = FeatureSpace::Build(
                num_items, RandomPatterns(rng, num_patterns, pattern_universe, 2, 4));
            ASSERT_EQ(space.num_patterns(), num_patterns);
            const auto txns = RandomTransactions(rng, 60, pattern_universe + 20, 24);
            PatternMatchIndex::Scratch scratch;
            ExpectMatchesScan(space, txns, &scratch);
            for (const auto& txn : txns) {
                matched += ScanMatch(space.patterns(), txn).size();
            }
        }
    }
    EXPECT_GT(matched, 1000u) << "the inputs contain too few patterns";
}

TEST(PatternMatchIndexTest, EmptyRowsRepeatsAndItemsBeyondUniverse) {
    const FeatureSpace space = FeatureSpace::Build(
        70, {P({1, 2}), P({2, 69}), P({69, 71}), P({72, 90})});
    PatternMatchIndex::Scratch scratch;
    ExpectMatchesScan(space,
                      {{},
                       {1, 1, 2, 2},
                       {2, 2, 2},
                       {69, 69, 71, 71},
                       {1, 2, 69, 71, 72, 90},
                       {90, 91, 500, 500, 100000},
                       {},
                       {72, 72, 90, 90, 4000000000u}},
                      &scratch);
}

TEST(PatternMatchIndexTest, OneScratchAcrossIndexesOfDifferentSizes) {
    Rng rng(7);
    const FeatureSpace large =
        FeatureSpace::Build(100, RandomPatterns(rng, 300, 110, 2, 5));
    const FeatureSpace small = FeatureSpace::Build(3, RandomPatterns(rng, 5, 9, 2, 3));
    const FeatureSpace patterns_only =
        FeatureSpace::Build(0, RandomPatterns(rng, 70, 40, 2, 4));
    const auto txns = RandomTransactions(rng, 40, 120, 30);
    PatternMatchIndex::Scratch scratch;
    for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        ExpectMatchesScan(large, txns, &scratch);
        ExpectMatchesScan(small, txns, &scratch);
        ExpectMatchesScan(patterns_only, txns, &scratch);
    }
}

TEST(PatternMatchIndexTest, MatchIntoCoversSingleItemPatterns) {
    // The rule learners build indexes with no item block and antecedents of
    // any length, single items included.
    Rng rng(11);
    const std::vector<Pattern> patterns = RandomPatterns(rng, 90, 30, 1, 4);
    const PatternMatchIndex index = PatternMatchIndex::Build(0, patterns);
    PatternMatchIndex::Scratch scratch;
    for (const auto& txn : RandomTransactions(rng, 80, 40, 16)) {
        index.MatchInto(txn, &scratch);
        ASSERT_EQ(scratch.matched, ScanMatch(patterns, txn));
        EXPECT_EQ(index.CountMatches(txn, &scratch), scratch.matched.size());
    }
}

}  // namespace
}  // namespace dfp
