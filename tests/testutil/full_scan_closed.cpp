#include "testutil/full_scan_closed.hpp"

#include <algorithm>

namespace dfp::testutil {

namespace {

struct FullScanMine {
    const TransactionDatabase& db;
    std::vector<ItemId> frequent;  // ascending, support >= min_sup
    std::size_t min_sup = 0;
    std::size_t max_len = 0;
    std::vector<char> in_closed;
    std::vector<Pattern> out;

    // Closure of `tidset` over every frequent item; false when an item below
    // `i` enters (not prefix-preserving) or the closure outgrows max_len.
    bool Close(const BitVector& tidset, ItemId i, Itemset* closure) const {
        closure->clear();
        for (ItemId j : frequent) {
            if (in_closed[j]) {
                closure->push_back(j);
            } else if (tidset.IsSubsetOf(db.ItemCover(j))) {
                if (j < i) return false;
                closure->push_back(j);
            } else {
                continue;
            }
            if (closure->size() > max_len) return false;
        }
        return true;
    }

    void Dfs(const Itemset& closed, const BitVector& tidset, std::size_t start) {
        for (std::size_t fi = start; fi < frequent.size(); ++fi) {
            const ItemId i = frequent[fi];
            if (in_closed[i]) continue;
            const std::size_t support = tidset.AndCount(db.ItemCover(i));
            if (support < min_sup) continue;
            const BitVector extended = tidset & db.ItemCover(i);
            Itemset closure;
            if (!Close(extended, i, &closure)) continue;
            Pattern p;
            p.items = closure;
            p.support = support;
            out.push_back(std::move(p));
            if (closure.size() == max_len) continue;  // descendants are longer
            for (ItemId j : closure) in_closed[j] = 1;
            Dfs(closure, extended, fi + 1);
            std::fill(in_closed.begin(), in_closed.end(), 0);
            for (ItemId j : closed) in_closed[j] = 1;
        }
    }
};

}  // namespace

std::vector<Pattern> FullScanClosed(const TransactionDatabase& db,
                                    const MinerConfig& config) {
    const std::size_t n = db.num_transactions();
    FullScanMine mine{db, {}, ResolveMinSup(config, n), config.max_pattern_len,
                      std::vector<char>(db.num_items(), 0), {}};
    for (ItemId i = 0; i < db.num_items(); ++i) {
        if (db.ItemSupport(i) >= mine.min_sup) mine.frequent.push_back(i);
    }
    Itemset root;
    for (ItemId i : mine.frequent) {
        if (db.ItemSupport(i) == n) root.push_back(i);
    }
    if (!root.empty() && n >= mine.min_sup && root.size() <= mine.max_len) {
        Pattern p;
        p.items = root;
        p.support = n;
        mine.out.push_back(std::move(p));
    }
    for (ItemId j : root) mine.in_closed[j] = 1;
    BitVector all(n);
    all.Fill();
    mine.Dfs(root, all, 0);
    FilterPatterns(config, &mine.out);
    return std::move(mine.out);
}

}  // namespace dfp::testutil
