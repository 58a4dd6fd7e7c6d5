#include "fpm/closed_miner.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_set>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/string_util.hpp"
#include "fpm/shard.hpp"
#include "obs/metrics.hpp"

namespace dfp {

namespace {

struct ClosedContext {
    const TransactionDatabase* db;
    std::vector<ItemId> frequent;  // ascending item ids, support >= min_sup
    std::size_t min_sup;
    std::size_t max_len;  // MinerConfig::max_pattern_len
    std::size_t max_patterns;  // the pattern cap, checked at emission
    bool capped = false;       // set when an emission found the cap full
    // Deadline, cancel and memory; the pattern cap is MayEmit's.
    BudgetGuard* guard = nullptr;
    std::size_t est_bytes = 0;    // coarse output-memory estimate for the guard
    std::vector<char> in_closed;  // membership of the current closed set
    // Per-depth cover slots, written in place with AssignAnd: the DFS holds a
    // reference to its depth's slot across the recursion, so this is sized to
    // the maximum depth up front and never reallocated mid-mine.
    std::vector<BitVector> cover_scratch;
    std::vector<Pattern>* out;
    // Instrumentation tallies, flushed to the registry once per Mine().
    std::size_t nodes_expanded = 0;   // prefix extensions whose support we took
    std::size_t closure_checks = 0;   // closure/subsumption scans
};

// The budget the per-node guards poll: the pattern cap moves to emission.
ExecutionBudget WithoutPatternCap(ExecutionBudget budget) {
    budget.max_patterns = std::numeric_limits<std::size_t>::max();
    return budget;
}

// Emission-time pattern cap: false, and the run stops on kPatternCap, when
// the cap is already full so one more pattern would exceed it. Checking here
// rather than per node means a cap equal to the output size is no breach.
bool MayEmit(ClosedContext& ctx) {
    if (ctx.out->size() < ctx.max_patterns) return true;
    ctx.capped = true;
    return false;
}

void TallyEmission(ClosedContext& ctx, const Pattern& p) {
    ctx.est_bytes += sizeof(Pattern) + p.items.capacity() * sizeof(ItemId);
}

void FlushClosedMetrics(std::size_t nodes_expanded, std::size_t closure_checks,
                        std::size_t emitted, bool budget_abort) {
    static auto& nodes =
        obs::Registry::Get().GetCounter("dfp.fpm.closed.nodes_expanded");
    static auto& closures =
        obs::Registry::Get().GetCounter("dfp.fpm.closed.closure_checks");
    static auto& patterns =
        obs::Registry::Get().GetCounter("dfp.fpm.closed.patterns_emitted");
    static auto& aborts =
        obs::Registry::Get().GetCounter("dfp.fpm.closed.budget_aborts");
    nodes.Inc(nodes_expanded);
    closures.Inc(closure_checks);
    patterns.Inc(emitted);
    if (budget_abort) aborts.Inc();
}

// Closure of `tidset`, the cover of the current closed set extended by core
// item `i`: the closed items plus every other frequent item whose cover
// contains `tidset`, ascending because `frequent` is. Returns false (leaving
// `closure` partial) when the extension is not prefix-preserving, i.e. an
// item below `i` enters (LCM), or when the closure outgrows `max_len`. Either
// way the extension emits nothing and its subtree is skipped: closures only
// grow down the DFS, so every pattern below a too-long closure is too long.
bool CloseExtension(const TransactionDatabase& db,
                    const std::vector<ItemId>& frequent,
                    const std::vector<char>& in_closed, const BitVector& tidset,
                    ItemId i, std::size_t max_len, Itemset* closure) {
    for (ItemId j : frequent) {
        if (in_closed[j]) {
            closure->push_back(j);  // closed ⊆ closure(tidset) always
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

// Prefix-preserving closure extension DFS (LCM). `closed` is the current
// closed itemset (sorted), `tidset` its cover, `core` the extension item that
// produced it. Returns false when the execution budget fires.
bool ClosedDfs(ClosedContext& ctx, const Itemset& closed, const BitVector& tidset,
               ItemId core, std::size_t depth) {
    for (ItemId i : ctx.frequent) {
        if (i <= core) continue;  // prefix-preserving: extend past the core only
        if (ctx.in_closed[i]) continue;
        // Fused count first: extensions that die on min_sup never materialize
        // a cover (the common case), and survivors write into this depth's
        // reusable slot instead of allocating a fresh vector.
        const std::size_t support = tidset.AndCount(ctx.db->ItemCover(i));
        ++ctx.nodes_expanded;
        if (ctx.guard->Check(ctx.out->size(), ctx.est_bytes) !=
            BudgetBreach::kNone) {
            return false;
        }
        if (support < ctx.min_sup) continue;
        BitVector& extended = ctx.cover_scratch[depth];
        extended.AssignAnd(tidset, ctx.db->ItemCover(i));

        ++ctx.closure_checks;
        Itemset closure;
        if (!CloseExtension(*ctx.db, ctx.frequent, ctx.in_closed, extended, i,
                            ctx.max_len, &closure)) {
            continue;
        }
        if (!MayEmit(ctx)) return false;
        Pattern p;
        p.items = closure;
        p.support = support;
        TallyEmission(ctx, p);
        ctx.out->push_back(std::move(p));
        if (closure.size() == ctx.max_len) continue;  // descendants are longer

        // Note: recurse on the local `closure`, not out->back() — the output
        // vector may reallocate during recursion.
        for (ItemId j : closure) ctx.in_closed[j] = 1;
        const bool ok = ClosedDfs(ctx, closure, extended, i, depth + 1);
        // Restore membership to the parent closed set.
        std::fill(ctx.in_closed.begin(), ctx.in_closed.end(), 0);
        for (ItemId j : closed) ctx.in_closed[j] = 1;
        if (!ok) return false;
    }
    return true;
}

// One top-level LCM subproblem: the prefix-preserving extension of the root
// closure by item `i` and its whole DFS subtree. Requires ctx.in_closed ==
// membership of `root_closed` on entry; leaves it restored on exit. Returns
// false when the execution budget fires.
bool ClosedTopLevel(ClosedContext& ctx, const Itemset& root_closed, ItemId i) {
    const TransactionDatabase& db = *ctx.db;
    // The top-level tidset is the item's own cover — borrow it, don't copy.
    const BitVector& tidset = db.ItemCover(i);
    const std::size_t support = tidset.Count();
    ++ctx.nodes_expanded;
    if (ctx.guard->Check(ctx.out->size(), ctx.est_bytes) !=
        BudgetBreach::kNone) {
        return false;
    }
    if (support < ctx.min_sup) return true;
    ++ctx.closure_checks;
    Itemset closure;
    if (!CloseExtension(db, ctx.frequent, ctx.in_closed, tidset, i, ctx.max_len,
                        &closure)) {
        return true;
    }
    if (!MayEmit(ctx)) return false;
    Pattern p;
    p.items = closure;
    p.support = support;
    TallyEmission(ctx, p);
    ctx.out->push_back(std::move(p));
    if (closure.size() == ctx.max_len) return true;  // descendants are longer

    for (ItemId j : closure) ctx.in_closed[j] = 1;
    const bool ok = ClosedDfs(ctx, closure, tidset, i, /*depth=*/0);
    std::fill(ctx.in_closed.begin(), ctx.in_closed.end(), 0);
    for (ItemId j : root_closed) ctx.in_closed[j] = 1;
    return ok;
}

// ---------------------------------------------------------------------------
// Parallel path: recursive LCM decomposition with sharded emission
// (DESIGN.md §17). The DFS mirrors ClosedDfs/ClosedTopLevel exactly — same
// extension order, same closure/prefix-preservation scans, same guard
// placement — but a closure subtree whose estimated work (tidset rows ×
// remaining extension items) exceeds the split threshold is copied into a
// heap-owned holder and re-submitted to the TaskGroup. Workers reuse
// per-slot membership/cover scratch across tasks; emissions land in
// DFS-position-keyed shards whose merge reproduces the serial emission
// sequence bit for bit.
// ---------------------------------------------------------------------------

// A spawned closure subtree: the closed set, its cover (copied — the
// spawning task's per-depth cover slot is overwritten as it continues), and
// the core item / depth the child DFS resumes from.
struct ClosedSubtreeHolder {
    Itemset closed;
    BitVector tidset;
    ItemId core = 0;
    std::size_t depth = 0;
};

// Per-slot scratch: closed-set membership and per-depth cover slots, both
// re-initialized per task (membership from the task's holder, covers only
// grown — the bit storage itself is reused).
struct ParClosedScratch {
    std::vector<char> in_closed;
    std::vector<BitVector> cover_scratch;
};

struct ParClosedShared {
    const TransactionDatabase* db = nullptr;
    std::vector<ItemId> frequent;
    std::size_t min_sup = 0;
    std::size_t max_len = 0;
    std::size_t max_patterns = 0;  // checked at emission (ParMayEmit)
    std::size_t split_threshold = 0;
    ExecutionBudget budget;  // without the pattern cap
    DeadlineTimer timer;
    SharedMineProgress progress;
    ShardCollector shards;
    TaskGroup* group = nullptr;
    WorkerLocal<ParClosedScratch>* scratch = nullptr;
    std::size_t num_workers = 0;
    std::atomic<int> breach{static_cast<int>(BudgetBreach::kNone)};
    std::atomic<std::uint64_t> nodes{0};
    std::atomic<std::uint64_t> closures{0};

    ParClosedShared(const MinerConfig& config, std::size_t min_sup_in)
        : min_sup(min_sup_in),
          max_len(config.max_pattern_len),
          max_patterns(
              std::min(config.max_patterns, config.budget.max_patterns)),
          split_threshold(config.split_work_threshold),
          budget(WithoutPatternCap(config.budget)),
          timer(config.budget.time_budget_ms) {}

    void RecordFirstBreach(BudgetBreach b) {
        int expected = static_cast<int>(BudgetBreach::kNone);
        breach.compare_exchange_strong(expected, static_cast<int>(b),
                                       std::memory_order_relaxed);
    }
};

// MayEmit against the pool-wide tally. Concurrent emitters may overshoot the
// cap by at most one pattern per worker before the breach lands.
bool ParMayEmit(ParClosedShared& sh) {
    if (sh.progress.emitted.load(std::memory_order_relaxed) < sh.max_patterns) {
        return true;
    }
    sh.RecordFirstBreach(BudgetBreach::kPatternCap);
    return false;
}

struct ParClosedCtx {
    ParClosedShared* sh;
    BudgetGuard* guard;
    ShardEmitter* emitter;
    ParClosedScratch* scratch;
    std::size_t slot;
    std::size_t nodes = 0;
    std::size_t closure_checks = 0;
};

void SpawnClosedSubtree(ParClosedCtx& ctx, const Itemset& closure,
                        const BitVector& tidset, ItemId core,
                        std::size_t depth);

bool ParClosedDfs(ParClosedCtx& ctx, const Itemset& closed,
                  const BitVector& tidset, ItemId core, std::size_t depth) {
    ParClosedShared& sh = *ctx.sh;
    std::vector<char>& in_closed = ctx.scratch->in_closed;
    for (std::size_t fi = 0; fi < sh.frequent.size(); ++fi) {
        const ItemId i = sh.frequent[fi];
        if (i <= core) continue;
        if (in_closed[i]) continue;
        const std::size_t support = tidset.AndCount(sh.db->ItemCover(i));
        ++ctx.nodes;
        if (ctx.guard->Check(
                sh.progress.emitted.load(std::memory_order_relaxed),
                sh.progress.est_bytes.load(std::memory_order_relaxed)) !=
            BudgetBreach::kNone) {
            return false;
        }
        if (support < sh.min_sup) continue;
        BitVector& extended = ctx.scratch->cover_scratch[depth];
        extended.AssignAnd(tidset, sh.db->ItemCover(i));

        ++ctx.closure_checks;
        Itemset closure;
        if (!CloseExtension(*sh.db, sh.frequent, in_closed, extended, i,
                            sh.max_len, &closure)) {
            continue;
        }
        if (!ParMayEmit(sh)) return false;
        ctx.emitter->PushRank(static_cast<std::uint32_t>(fi));
        Pattern p;
        p.items = closure;
        p.support = support;
        const std::size_t bytes =
            sizeof(Pattern) + p.items.capacity() * sizeof(ItemId);
        sh.progress.AddEmitted();
        sh.progress.AddBytes(bytes);
        ctx.emitter->Emit(std::move(p));

        // A closure at the length bound is a leaf: its descendants are longer.
        const bool leaf = closure.size() == sh.max_len;
        // Estimated subtree work: cover rows × extension items still ahead.
        const std::size_t est = support * (sh.frequent.size() - fi);
        if (!leaf && est > sh.split_threshold) {
            SpawnClosedSubtree(ctx, closure, extended, i, depth + 1);
        } else if (!leaf) {
            for (ItemId j : closure) in_closed[j] = 1;
            const bool ok = ParClosedDfs(ctx, closure, extended, i, depth + 1);
            std::fill(in_closed.begin(), in_closed.end(), 0);
            for (ItemId j : closed) in_closed[j] = 1;
            if (!ok) {
                ctx.emitter->PopRank();
                return false;
            }
        }
        ctx.emitter->PopRank();
    }
    return true;
}

void RunClosedSubtreeTask(ParClosedShared* sh,
                          std::shared_ptr<ClosedSubtreeHolder> holder,
                          ShardKey path, std::size_t slot) {
    ParClosedScratch& scratch = sh->scratch->At(slot);
    scratch.in_closed.assign(sh->db->num_items(), 0);
    for (ItemId j : holder->closed) scratch.in_closed[j] = 1;
    if (scratch.cover_scratch.size() < sh->frequent.size()) {
        scratch.cover_scratch.resize(sh->frequent.size());
    }
    BudgetGuard guard(TaskBudget(sh->budget, sh->timer));
    ShardEmitter emitter(&sh->shards, std::move(path));
    ParClosedCtx ctx{sh, &guard, &emitter, &scratch, slot};
    if (!ParClosedDfs(ctx, holder->closed, holder->tidset, holder->core,
                      holder->depth)) {
        sh->RecordFirstBreach(guard.breach());
    }
    emitter.Flush();
    sh->nodes.fetch_add(ctx.nodes, std::memory_order_relaxed);
    sh->closures.fetch_add(ctx.closure_checks, std::memory_order_relaxed);
}

void SpawnClosedSubtree(ParClosedCtx& ctx, const Itemset& closure,
                        const BitVector& tidset, ItemId core,
                        std::size_t depth) {
    ParClosedShared& sh = *ctx.sh;
    auto holder = std::make_shared<ClosedSubtreeHolder>();
    holder->closed = closure;
    holder->tidset = tidset;
    holder->core = core;
    holder->depth = depth;
    ctx.emitter->Flush();  // contiguity rule: shard ends at the spawn
    ShardKey child_path = ctx.emitter->path();
    const std::size_t from =
        ctx.slot < sh.num_workers ? ctx.slot : ThreadPool::kNoQueue;
    sh.group->SubmitSlotted(
        [sh_ptr = &sh, holder = std::move(holder),
         child_path = std::move(child_path)](std::size_t slot) mutable {
            RunClosedSubtreeTask(sh_ptr, std::move(holder),
                                 std::move(child_path), slot);
        },
        from);
}

// The root task: iterates the top-level core items in serial order, emitting
// each core's closure and descending (inline or via split) into its subtree.
void RunClosedRootTask(ParClosedShared* sh, const Itemset& root_closed,
                       const std::vector<ItemId>& cores, std::size_t slot) {
    ParClosedScratch& scratch = sh->scratch->At(slot);
    scratch.in_closed.assign(sh->db->num_items(), 0);
    for (ItemId j : root_closed) scratch.in_closed[j] = 1;
    if (scratch.cover_scratch.size() < sh->frequent.size()) {
        scratch.cover_scratch.resize(sh->frequent.size());
    }
    BudgetGuard guard(TaskBudget(sh->budget, sh->timer));
    ShardEmitter emitter(&sh->shards, {});
    ParClosedCtx ctx{sh, &guard, &emitter, &scratch, slot};
    const TransactionDatabase& db = *sh->db;
    bool ok = true;
    for (std::size_t k = 0; k < cores.size() && ok; ++k) {
        const ItemId i = cores[k];
        // Top-level tidset: the item's own cover — borrowed, not copied.
        const BitVector& tidset = db.ItemCover(i);
        const std::size_t support = tidset.Count();
        ++ctx.nodes;
        if (guard.Check(sh->progress.emitted.load(std::memory_order_relaxed),
                        sh->progress.est_bytes.load(
                            std::memory_order_relaxed)) !=
            BudgetBreach::kNone) {
            ok = false;
            break;
        }
        if (support < sh->min_sup) continue;
        ++ctx.closure_checks;
        Itemset closure;
        if (!CloseExtension(db, sh->frequent, scratch.in_closed, tidset, i,
                            sh->max_len, &closure)) {
            continue;
        }
        if (!ParMayEmit(*sh)) {
            ok = false;
            break;
        }
        emitter.PushRank(static_cast<std::uint32_t>(k));
        Pattern p;
        p.items = closure;
        p.support = support;
        const std::size_t bytes =
            sizeof(Pattern) + p.items.capacity() * sizeof(ItemId);
        sh->progress.AddEmitted();
        sh->progress.AddBytes(bytes);
        emitter.Emit(std::move(p));

        const bool leaf = closure.size() == sh->max_len;
        const std::size_t est = support * sh->frequent.size();
        if (!leaf && est > sh->split_threshold) {
            SpawnClosedSubtree(ctx, closure, tidset, i, /*depth=*/0);
        } else if (!leaf) {
            for (ItemId j : closure) scratch.in_closed[j] = 1;
            ok = ParClosedDfs(ctx, closure, tidset, i, /*depth=*/0);
            std::fill(scratch.in_closed.begin(), scratch.in_closed.end(), 0);
            for (ItemId j : root_closed) scratch.in_closed[j] = 1;
        }
        emitter.PopRank();
    }
    if (!ok) sh->RecordFirstBreach(guard.breach());
    emitter.Flush();
    sh->nodes.fetch_add(ctx.nodes, std::memory_order_relaxed);
    sh->closures.fetch_add(ctx.closure_checks, std::memory_order_relaxed);
}

}  // namespace

Result<MineOutcome<Pattern>> ClosedMiner::MineBudgeted(
    const TransactionDatabase& db, const MinerConfig& config) const {
    const std::size_t n = db.num_transactions();
    const std::size_t min_sup = ResolveMinSup(config, n);

    BudgetGuard guard(WithoutPatternCap(config.budget));
    MineOutcome<Pattern> outcome;
    std::vector<Pattern>& out = outcome.patterns;
    ClosedContext ctx;
    ctx.db = &db;
    ctx.min_sup = min_sup;
    ctx.max_len = config.max_pattern_len;
    ctx.max_patterns = std::min(config.max_patterns, config.budget.max_patterns);
    ctx.guard = &guard;
    ctx.in_closed.assign(db.num_items(), 0);
    ctx.out = &out;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        if (db.ItemSupport(i) >= min_sup) ctx.frequent.push_back(i);
    }
    // Depth can never exceed the number of frequent items (each level adds at
    // least one item to the closed set).
    ctx.cover_scratch.assign(ctx.frequent.size(), BitVector());

    // Closure of the empty set: items present in every transaction.
    Itemset root_closed;
    for (ItemId i : ctx.frequent) {
        if (db.ItemSupport(i) == n) {
            root_closed.push_back(i);
            ctx.in_closed[i] = 1;
        }
    }
    if (!root_closed.empty() && n >= min_sup &&
        root_closed.size() <= config.max_pattern_len && MayEmit(ctx)) {
        Pattern p;
        p.items = root_closed;
        p.support = n;
        out.push_back(std::move(p));
    }

    // Sentinel core: items are unsigned, so reuse the DFS with a "core" below
    // every item by running extensions for all frequent items not in the root
    // closure directly. Each top-level item spans an independent LCM
    // subproblem — the parallel fan-out unit.
    std::vector<ItemId> cores;
    for (ItemId i : ctx.frequent) {
        if (!ctx.in_closed[i]) cores.push_back(i);
    }
    const std::size_t threads =
        std::min(ResolveNumThreads(config.num_threads), cores.size());
    std::size_t nodes = 0;
    std::size_t closures = 0;

    if (ctx.capped) {
        outcome.breach = BudgetBreach::kPatternCap;  // a zero cap
    } else if (threads <= 1) {
        // Serial path.
        bool ok = true;
        for (std::size_t k = 0; k < cores.size() && ok; ++k) {
            ok = ClosedTopLevel(ctx, root_closed, cores[k]);
        }
        if (!ok) {
            outcome.breach =
                ctx.capped ? BudgetBreach::kPatternCap : guard.breach();
        }
        nodes = ctx.nodes_expanded;
        closures = ctx.closure_checks;
    } else {
        // Recursive decomposition (DESIGN.md §17): one root task walks the
        // core items in serial order; any closure subtree whose estimated
        // work exceeds the split threshold is copied into a holder and
        // re-submitted to the TaskGroup, so parallelism follows the
        // (exponentially skewed) subtree sizes instead of the first level's
        // core count. Workers reuse per-slot membership/cover scratch across
        // tasks; the DFS-keyed shard merge reproduces the serial emission
        // sequence bit for bit, and a defensive dedup pass guards the
        // closed-set uniqueness invariant under mid-task truncation.
        ThreadPool pool(threads);
        WorkerLocal<ParClosedScratch> scratch(pool.num_slots());
        TaskGroup group(pool);
        ParClosedShared shared(config, min_sup);
        shared.db = &db;
        shared.frequent = ctx.frequent;
        shared.group = &group;
        shared.scratch = &scratch;
        shared.num_workers = pool.num_workers();
        shared.progress.AddEmitted(out.size());  // root-closure pattern, if any
        group.SubmitSlotted([&shared, &root_closed, &cores](std::size_t slot) {
            RunClosedRootTask(&shared, root_closed, cores, slot);
        });
        group.Wait();

        std::vector<Pattern> merged;
        shared.shards.MergeInto(&merged);
        // Dedup: with complete subtrees closed sets are unique (LCM's
        // prefix-preservation), so this drops nothing; it guards the
        // invariant when a budget truncated some tasks mid-subtree.
        std::unordered_set<std::string> seen;
        seen.reserve(out.size() + merged.size());
        auto key = [](const Itemset& items) {
            return std::string(reinterpret_cast<const char*>(items.data()),
                               items.size() * sizeof(ItemId));
        };
        for (const Pattern& p : out) seen.insert(key(p.items));
        out.reserve(out.size() + merged.size());
        for (Pattern& p : merged) {
            if (seen.insert(key(p.items)).second) out.push_back(std::move(p));
        }
        outcome.breach = static_cast<BudgetBreach>(
            shared.breach.load(std::memory_order_relaxed));
        nodes = shared.nodes.load(std::memory_order_relaxed);
        closures = shared.closures.load(std::memory_order_relaxed);
    }

    if (outcome.truncated()) {
        FlushClosedMetrics(nodes, closures, out.size(), /*budget_abort=*/true);
        RecordBreach("fpm.closed", outcome.breach,
                     static_cast<double>(out.size()));
        DFP_LOG_WARN(StrFormat(
            "closed miner stopped on %s at %zu patterns (min_sup=%zu)",
            BudgetBreachName(outcome.breach), out.size(), min_sup));
        FilterPatterns(config, &out);
        return outcome;
    }
    FilterPatterns(config, &out);
    FlushClosedMetrics(nodes, closures, out.size(), /*budget_abort=*/false);
    return outcome;
}

}  // namespace dfp
