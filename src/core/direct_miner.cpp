#include "core/direct_miner.hpp"

#include <algorithm>
#include <queue>

#include "common/string_util.hpp"

namespace dfp {

namespace {

// Min-heap of (ig, insertion-id) keeping the k best patterns.
struct Scored {
    double ig;
    Pattern pattern;
};

struct ScoredGreater {
    bool operator()(const Scored& a, const Scored& b) const { return a.ig > b.ig; }
};

using TopK =
    std::priority_queue<Scored, std::vector<Scored>, ScoredGreater>;

struct SearchContext {
    const TransactionDatabase* db;
    std::size_t min_sup;
    std::size_t max_len;
    std::size_t top_k;
    std::size_t max_nodes;
    bool include_singletons;
    std::vector<ItemId> frequent;
    TopK heap;
    DirectMinerStats stats;
};

double CurrentThreshold(const SearchContext& ctx) {
    return ctx.heap.size() < ctx.top_k ? -1.0 : ctx.heap.top().ig;
}

void Offer(SearchContext& ctx, const Itemset& items, const BitVector& cover,
           std::size_t support) {
    if (!ctx.include_singletons && items.size() < 2) return;
    Pattern p;
    p.items = items;
    p.cover = cover;
    p.support = support;
    p.class_counts = ctx.db->ClassCountsOf(cover);
    const double ig = InformationGain(StatsOfPattern(*ctx.db, p));
    if (ctx.heap.size() < ctx.top_k) {
        ctx.heap.push({ig, std::move(p)});
    } else if (ig > ctx.heap.top().ig) {
        ctx.heap.pop();
        ctx.heap.push({ig, std::move(p)});
    }
}

// DFS with the sub-cover IG bound. Returns false on node-budget exhaustion.
bool Search(SearchContext& ctx, Itemset& prefix, const BitVector& cover,
            std::size_t first_candidate) {
    for (std::size_t k = first_candidate; k < ctx.frequent.size(); ++k) {
        if (ctx.stats.nodes_explored >= ctx.max_nodes) return false;
        ++ctx.stats.nodes_explored;
        const ItemId item = ctx.frequent[k];
        BitVector extended = cover;
        extended &= ctx.db->ItemCover(item);
        const std::size_t support = extended.Count();
        if (support < ctx.min_sup) {
            ++ctx.stats.nodes_pruned_support;
            continue;
        }
        prefix.push_back(item);
        Offer(ctx, prefix, extended, support);
        if (prefix.size() < ctx.max_len) {
            const double bound = SubCoverIgBound(*ctx.db, extended, ctx.min_sup);
            if (bound > CurrentThreshold(ctx)) {
                if (!Search(ctx, prefix, extended, k + 1)) {
                    prefix.pop_back();
                    return false;
                }
            } else {
                ++ctx.stats.nodes_pruned_bound;
            }
        }
        prefix.pop_back();
    }
    return true;
}

}  // namespace

double SubCoverIgBound(const TransactionDatabase& db, const BitVector& cover,
                       std::size_t min_sup) {
    const auto counts = db.ClassCountsOf(cover);
    const std::vector<std::size_t>& totals = db.ClassCounts();
    const std::size_t n = db.num_transactions();

    double best = 0.0;
    auto evaluate = [&](const std::vector<std::size_t>& class_support) {
        FeatureStats stats;
        stats.n = n;
        stats.class_totals = totals;
        stats.class_support = class_support;
        stats.support = 0;
        for (auto c : class_support) stats.support += c;
        best = std::max(best, InformationGain(stats));
    };

    const std::size_t m = counts.size();
    std::vector<std::size_t> candidate(m, 0);
    for (std::size_t c = 0; c < m; ++c) {
        if (counts[c] == 0) continue;
        // Pure class-c sub-cover (the classic DDPMine bound).
        std::fill(candidate.begin(), candidate.end(), 0);
        candidate[c] = counts[c];
        evaluate(candidate);
        // Complement: everything in the cover except class c.
        candidate = counts;
        candidate[c] = 0;
        evaluate(candidate);
    }
    evaluate(counts);  // the cover itself
    (void)min_sup;     // feasibility is ignored: dropping it keeps the bound valid
    return best;
}

Result<std::vector<Pattern>> MineTopKDiscriminative(
    const TransactionDatabase& db, const DirectMinerConfig& config,
    DirectMinerStats* stats) {
    SearchContext ctx;
    ctx.db = &db;
    ctx.min_sup = ResolveMinSup(config.miner, db.num_transactions());
    ctx.max_len = config.miner.max_pattern_len;
    ctx.top_k = std::max<std::size_t>(config.top_k, 1);
    ctx.max_nodes = config.max_nodes;
    ctx.include_singletons = config.miner.include_singletons;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        if (db.ItemSupport(i) >= ctx.min_sup) ctx.frequent.push_back(i);
    }

    BitVector all(db.num_transactions());
    all.Fill();
    Itemset prefix;
    const bool completed = Search(ctx, prefix, all, 0);
    if (stats != nullptr) *stats = ctx.stats;
    if (!completed) {
        return Status::ResourceExhausted(
            StrFormat("direct miner exceeded node budget (%zu)", config.max_nodes));
    }

    std::vector<Scored> scored;
    while (!ctx.heap.empty()) {
        scored.push_back(ctx.heap.top());
        ctx.heap.pop();
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) { return a.ig > b.ig; });
    std::vector<Pattern> out;
    out.reserve(scored.size());
    for (Scored& s : scored) out.push_back(std::move(s.pattern));
    return out;
}

}  // namespace dfp
