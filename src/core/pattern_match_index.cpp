#include "core/pattern_match_index.hpp"

#include <algorithm>

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
    scratch->hits.resize(num_patterns());
    scratch->encoded.resize(PackedWords(dim()));
}

void PatternMatchIndex::CountHits(const std::vector<ItemId>& transaction,
                                  Scratch* scratch) const {
    scratch->hits.assign(num_patterns(), 0);
    std::uint32_t* hits = scratch->hits.data();
    const std::size_t universe = offsets_.size() - 1;
    for (std::size_t t = 0; t < transaction.size(); ++t) {
        const ItemId item = transaction[t];
        if (item >= universe) continue;  // in no pattern
        if (t > 0 && transaction[t - 1] == item) continue;  // counted once
        const std::uint32_t end = offsets_[item + 1];
        for (std::uint32_t k = offsets_[item]; k < end; ++k) ++hits[postings_[k]];
    }
}

void PatternMatchIndex::MatchInto(const std::vector<ItemId>& transaction,
                                  Scratch* scratch) const {
    CountHits(transaction, scratch);
    scratch->matched.clear();
    for (std::size_t p = 0; p < num_patterns(); ++p) {
        if (scratch->hits[p] == pattern_len_[p]) {
            scratch->matched.push_back(static_cast<std::uint32_t>(p));
        }
    }
}

void PatternMatchIndex::EncodeInto(const std::vector<ItemId>& transaction,
                                   Scratch* scratch) const {
    scratch->encoded.assign(PackedWords(dim()), 0);
    std::uint64_t* row = scratch->encoded.data();
    for (ItemId item : transaction) {
        if (item < num_items_) row[item / 64] |= std::uint64_t{1} << (item % 64);
    }
    CountHits(transaction, scratch);
    // Pattern p is column num_items_ + p. Each row word is built in a
    // register and stored once: bit-by-bit stores would each wait on the
    // one before.
    const std::uint32_t* hits = scratch->hits.data();
    const std::uint32_t* len = pattern_len_.data();
    const std::size_t n = num_patterns();
    std::size_t col = num_items_;
    for (std::size_t p = 0; p < n;) {
        const std::size_t shift = col % 64;
        const std::size_t take = std::min(64 - shift, n - p);
        std::uint64_t word = 0;
        for (std::size_t j = 0; j < take; ++j) {
            word |= std::uint64_t{hits[p + j] == len[p + j]} << (shift + j);
        }
        row[col / 64] |= word;
        p += take;
        col += take;
    }
}

}  // namespace dfp
