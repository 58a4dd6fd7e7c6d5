#include "testutil/apriori.hpp"

#include <algorithm>

#include "common/string_util.hpp"
#include "obs/metrics.hpp"

namespace dfp::testutil {

namespace {

// Instrumentation tallies, flushed to the registry once per Mine().
struct AprioriTallies {
    std::size_t levels = 0;
    std::size_t candidates_generated = 0;  // joins surviving the subset check
    std::size_t subset_checks = 0;
};

void FlushAprioriMetrics(const AprioriTallies& tallies, std::size_t emitted,
                         bool budget_abort) {
    static auto& levels =
        obs::Registry::Get().GetCounter("dfp.fpm.apriori.levels");
    static auto& candidates =
        obs::Registry::Get().GetCounter("dfp.fpm.apriori.candidates_generated");
    static auto& checks =
        obs::Registry::Get().GetCounter("dfp.fpm.apriori.subset_checks");
    static auto& patterns =
        obs::Registry::Get().GetCounter("dfp.fpm.apriori.patterns_emitted");
    static auto& aborts =
        obs::Registry::Get().GetCounter("dfp.fpm.apriori.budget_aborts");
    levels.Inc(tallies.levels);
    candidates.Inc(tallies.candidates_generated);
    checks.Inc(tallies.subset_checks);
    patterns.Inc(emitted);
    if (budget_abort) aborts.Inc();
}

// Candidate itemset with the cover of its (k-1)-prefix parent, so support
// counting is one AND away.
struct Level {
    std::vector<Itemset> itemsets;
    std::vector<BitVector> covers;
    std::vector<std::size_t> supports;
};

// True if every (k-1)-subset of `candidate` appears in `prev` (sorted).
bool AllSubsetsFrequent(const Itemset& candidate,
                        const std::vector<Itemset>& prev_sorted) {
    Itemset sub(candidate.size() - 1);
    for (std::size_t drop = 0; drop < candidate.size(); ++drop) {
        std::size_t k = 0;
        for (std::size_t i = 0; i < candidate.size(); ++i) {
            if (i != drop) sub[k++] = candidate[i];
        }
        if (!std::binary_search(prev_sorted.begin(), prev_sorted.end(), sub)) {
            return false;
        }
    }
    return true;
}

}  // namespace

Result<MineOutcome<Pattern>> AprioriMiner::MineBudgeted(
    const TransactionDatabase& db, const MinerConfig& config) const {
    const std::size_t min_sup = ResolveMinSup(config, db.num_transactions());
    MineOutcome<Pattern> outcome;
    std::vector<Pattern>& out = outcome.patterns;
    AprioriTallies tallies;
    BudgetGuard guard(config.budget, config.max_patterns);
    // Coarse live-memory estimate: emitted patterns plus the per-level bitset
    // covers (the dominant allocation for dense databases).
    const std::size_t cover_bytes = (db.num_transactions() + 7) / 8;
    std::size_t out_bytes = 0;

    // L1.
    Level current;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        const std::size_t s = db.ItemSupport(i);
        if (s < min_sup) continue;
        current.itemsets.push_back({i});
        current.covers.push_back(db.ItemCover(i));
        current.supports.push_back(s);
    }

    std::size_t level = 1;
    while (!current.itemsets.empty() && level <= config.max_pattern_len &&
           guard.ok()) {
        ++tallies.levels;
        std::size_t covers_bytes = current.covers.size() * cover_bytes;
        for (std::size_t i = 0; i < current.itemsets.size(); ++i) {
            if (guard.Check(out.size(), out_bytes + covers_bytes) !=
                BudgetBreach::kNone) {
                break;
            }
            Pattern p;
            p.items = current.itemsets[i];
            p.support = current.supports[i];
            out_bytes += sizeof(Pattern) + p.items.capacity() * sizeof(ItemId);
            out.push_back(std::move(p));
        }
        if (!guard.ok()) break;
        if (level == config.max_pattern_len) break;

        // Candidate generation: join itemsets sharing a (k-1)-prefix. The
        // level's itemsets are produced in lexicographic order, so equal-prefix
        // runs are contiguous.
        std::vector<Itemset> prev_sorted = current.itemsets;
        std::sort(prev_sorted.begin(), prev_sorted.end());
        Level next;
        for (std::size_t a = 0; a < current.itemsets.size() && guard.ok(); ++a) {
            for (std::size_t b = a + 1; b < current.itemsets.size(); ++b) {
                if (guard.Check(out.size(), out_bytes + covers_bytes) !=
                    BudgetBreach::kNone) {
                    break;
                }
                const Itemset& x = current.itemsets[a];
                const Itemset& y = current.itemsets[b];
                if (!std::equal(x.begin(), x.end() - 1, y.begin(), y.end() - 1)) {
                    break;  // prefix run ended (lexicographic order)
                }
                Itemset cand = x;
                cand.push_back(y.back());
                if (cand[cand.size() - 2] > cand.back()) {
                    std::swap(cand[cand.size() - 2], cand[cand.size() - 1]);
                }
                ++tallies.subset_checks;
                if (!AllSubsetsFrequent(cand, prev_sorted)) continue;
                ++tallies.candidates_generated;
                BitVector cover = current.covers[a];
                cover &= db.ItemCover(cand.back());
                const std::size_t s = cover.Count();
                if (s < min_sup) continue;
                next.itemsets.push_back(std::move(cand));
                next.covers.push_back(std::move(cover));
                next.supports.push_back(s);
                covers_bytes += cover_bytes;
            }
        }
        if (!guard.ok()) break;
        current = std::move(next);
        ++level;
    }
    outcome.breach = guard.breach();
    if (outcome.truncated()) {
        FlushAprioriMetrics(tallies, out.size(), /*budget_abort=*/true);
        RecordBreach("fpm.apriori", outcome.breach,
                     static_cast<double>(out.size()));
        FilterPatterns(config, &out);
        return outcome;
    }
    FilterPatterns(config, &out);
    FlushAprioriMetrics(tallies, out.size(), /*budget_abort=*/false);
    return outcome;
}

}  // namespace dfp::testutil
