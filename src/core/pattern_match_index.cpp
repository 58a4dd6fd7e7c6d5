#include "core/pattern_match_index.hpp"

#include <algorithm>
#include <limits>

#include "ml/feature_matrix.hpp"

namespace dfp {

PatternMatchIndex PatternMatchIndex::Build(std::size_t num_items,
                                           const std::vector<Pattern>& patterns) {
    PatternMatchIndex index;
    index.num_items_ = num_items;
    index.pattern_len_.reserve(patterns.size());
    std::size_t universe = 0;
    for (const Pattern& p : patterns) {
        index.pattern_len_.push_back(static_cast<std::uint32_t>(p.items.size()));
        for (ItemId item : p.items) {
            universe = std::max<std::size_t>(universe, std::size_t{item} + 1);
        }
    }
    // Counting pass, then prefix sums, then a placement pass — the classic
    // two-pass CSR build. Postings within an item stay in pattern-id order.
    index.offsets_.assign(universe + 1, 0);
    for (const Pattern& p : patterns) {
        for (ItemId item : p.items) ++index.offsets_[item + 1];
    }
    for (std::size_t i = 0; i < universe; ++i) {
        index.offsets_[i + 1] += index.offsets_[i];
    }
    index.postings_.resize(index.offsets_.back());
    std::vector<std::uint32_t> cursor(index.offsets_.begin(),
                                      index.offsets_.end() - 1);
    for (std::size_t p = 0; p < patterns.size(); ++p) {
        for (ItemId item : patterns[p].items) {
            index.postings_[cursor[item]++] = static_cast<std::uint32_t>(p);
        }
    }
    return index;
}

void PatternMatchIndex::InitScratch(Scratch* scratch) const {
    const std::size_t n = num_patterns();
    if (scratch->hits.size() != n) {
        scratch->hits.assign(n, 0);
        scratch->stamp.assign(n, 0);
        scratch->generation = 0;
    }
    scratch->encoded.resize(PackedWords(dim()));
}

void PatternMatchIndex::MatchInto(const std::vector<ItemId>& transaction,
                                  Scratch* scratch) const {
    scratch->matched.clear();
    if (scratch->generation == std::numeric_limits<std::uint32_t>::max()) {
        // Generation wrap: one real clear every 2^32 - 1 calls.
        std::fill(scratch->stamp.begin(), scratch->stamp.end(), 0);
        scratch->generation = 0;
    }
    const std::uint32_t gen = ++scratch->generation;
    const std::size_t universe = offsets_.size() - 1;
    for (std::size_t t = 0; t < transaction.size(); ++t) {
        const ItemId item = transaction[t];
        if (item >= universe) continue;  // in no pattern
        if (t > 0 && transaction[t - 1] == item) continue;  // counted once
        const std::uint32_t begin = offsets_[item];
        const std::uint32_t end = offsets_[item + 1];
        for (std::uint32_t k = begin; k < end; ++k) {
            const std::uint32_t p = postings_[k];
            std::uint32_t hits;
            if (scratch->stamp[p] != gen) {
                scratch->stamp[p] = gen;
                hits = scratch->hits[p] = 1;
            } else {
                hits = ++scratch->hits[p];
            }
            // Each distinct transaction item touches a pattern at most once,
            // so the counter reaches the length exactly when the whole
            // pattern is contained.
            if (hits == pattern_len_[p]) scratch->matched.push_back(p);
        }
    }
}

void PatternMatchIndex::EncodeInto(const std::vector<ItemId>& transaction,
                                   Scratch* scratch) const {
    InitScratch(scratch);
    std::uint64_t* row = scratch->encoded.data();
    std::fill(scratch->encoded.begin(), scratch->encoded.end(), 0);
    auto set = [row](std::size_t c) { row[c / 64] |= std::uint64_t{1} << (c % 64); };
    for (ItemId item : transaction) {
        if (item < num_items_) set(item);
    }
    MatchInto(transaction, scratch);
    for (std::uint32_t p : scratch->matched) set(num_items_ + p);
}

}  // namespace dfp
