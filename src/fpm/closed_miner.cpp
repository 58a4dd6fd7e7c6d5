#include "fpm/closed_miner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/string_util.hpp"
#include "fpm/shard.hpp"
#include "obs/metrics.hpp"

namespace dfp {

namespace {

// The budget the per-node guards poll: the pattern cap moves to emission.
ExecutionBudget WithoutPatternCap(ExecutionBudget budget) {
    budget.max_patterns = std::numeric_limits<std::size_t>::max();
    return budget;
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
// item `i`: the closed items plus every other item of the node's conditional
// list `cond` (indices into `frequent`) whose cover contains `tidset`,
// ascending because `cond` and `frequent` are. An item left off the list was
// infrequent in an ancestor's cover T ⊇ tidset, so |tidset| ≥ min_sup >
// |T ∧ cover_j| rules it out of the closure. Overwrites `closure` (a
// per-depth scratch whose storage is reused). Returns false (leaving
// `closure` partial) when the extension is not prefix-preserving, i.e. an
// item below `i` enters (LCM), or when the closure outgrows `max_len`. Either
// way the extension emits nothing and its subtree is skipped: closures only
// grow down the DFS, so every pattern below a too-long closure is too long.
bool CloseExtension(const TransactionDatabase& db,
                    const std::vector<ItemId>& frequent,
                    const std::vector<std::uint32_t>& cond,
                    const std::vector<char>& in_closed, const BitVector& tidset,
                    ItemId i, std::size_t max_len, Itemset* closure) {
    closure->clear();
    for (std::uint32_t fj : cond) {
        const ItemId j = frequent[fj];
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

// ---------------------------------------------------------------------------
// Recursive LCM decomposition with sharded emission (DESIGN.md §17). One DFS
// serves every thread count: a closure subtree whose estimated work (cover
// rows × extension items still ahead) exceeds the split threshold is copied
// into a heap-owned holder and re-submitted to the TaskGroup when there is
// one; at one thread the group is null and every subtree is mined inline.
// Workers reuse per-slot membership/cover scratch across tasks; emissions
// land in DFS-position-keyed shards whose merge is the serial emission
// sequence.
// ---------------------------------------------------------------------------

// A closure subtree to mine: the closed set, its cover and its conditional
// item list (both copied — a spawning task's per-depth slots are overwritten
// as it continues), the first index in `frequent` its prefix-preserving
// extensions may use, and the scratch depth of those extensions. The root
// holds the closure of the empty set, an all-ones cover, every index of
// `frequent` and start 0, and emits that closure itself when it is a
// pattern; every other closed set was emitted by its spawner.
struct ClosedSubtree {
    Itemset closed;
    BitVector tidset;
    std::vector<std::uint32_t> cond;
    std::size_t start = 0;
    std::size_t depth = 0;
    bool emit_closed = false;
};

// Per-slot scratch: closed-set membership and per-depth cover, closure,
// conditional-list and support slots, all re-initialized per task
// (membership from the task's holder, the rest only grown — their storage is
// reused). The DFS holds references to its depth's slots across the
// recursion, so the slots are sized to the maximum depth up front and never
// reallocated mid-task.
struct ClosedScratch {
    std::vector<char> in_closed;
    std::vector<BitVector> cover_scratch;
    std::vector<Itemset> closure_scratch;
    std::vector<std::vector<std::uint32_t>> cond_scratch;
    std::vector<std::vector<std::size_t>> support_scratch;
};

struct ClosedShared {
    const TransactionDatabase* db = nullptr;
    std::vector<ItemId> frequent;  // ascending item ids, support >= min_sup
    std::size_t min_sup = 0;
    std::size_t max_len = 0;       // MinerConfig::max_pattern_len
    std::size_t max_patterns = 0;  // checked at emission (MayEmit)
    std::size_t split_threshold = 0;
    ExecutionBudget budget;  // without the pattern cap
    DeadlineTimer timer;
    SharedMineProgress progress;
    ShardCollector shards;
    TaskGroup* group = nullptr;  // null at one thread: nothing splits
    WorkerLocal<ClosedScratch>* scratch = nullptr;
    std::size_t num_workers = 0;
    std::atomic<int> breach{static_cast<int>(BudgetBreach::kNone)};
    std::atomic<std::uint64_t> nodes{0};
    std::atomic<std::uint64_t> closures{0};

    ClosedShared(const MinerConfig& config, std::size_t min_sup_in)
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

// Emission-time pattern cap: false, and the run stops on kPatternCap, when
// the cap is already full so one more pattern would exceed it. Checking here
// rather than per node means a cap equal to the output size is no breach.
// Concurrent emitters may overshoot the cap by at most one pattern per
// worker before the breach lands.
bool MayEmit(ClosedShared& sh) {
    if (sh.progress.emitted.load(std::memory_order_relaxed) < sh.max_patterns) {
        return true;
    }
    sh.RecordFirstBreach(BudgetBreach::kPatternCap);
    return false;
}

struct ClosedCtx {
    ClosedShared* sh;
    BudgetGuard* guard;
    ShardEmitter* emitter;
    ClosedScratch* scratch;
    std::size_t slot;
    std::size_t nodes = 0;           // extensions whose support we counted
    std::size_t closure_checks = 0;  // closure/subsumption scans
};

void SpawnClosedSubtree(ClosedCtx& ctx, const Itemset& closure,
                        const BitVector& tidset,
                        const std::vector<std::uint32_t>& cond,
                        std::size_t start, std::size_t depth);

// Prefix-preserving closure extension DFS (LCM) over conditional item lists
// (LCM's conditional database, without occurrence delivery). `closed` is the
// current closed itemset (sorted), `tidset` its cover and `parent_cond` the
// parent's conditional list: the indices into `frequent` not yet ruled out
// by an ancestor's cover. The node counts only the listed non-closed items
// from index `start` on and keeps the frequent ones; the listed items below
// `start` and the closed items are kept uncounted. That kept list is what
// the node's closures scan and what its children inherit. It then extends
// by the kept items from `start` on, in ascending order. Requires scratch
// membership == `closed` on entry and leaves it so. Returns false when the
// execution budget fires.
bool ClosedDfs(ClosedCtx& ctx, const Itemset& closed, const BitVector& tidset,
               const std::vector<std::uint32_t>& parent_cond,
               std::size_t start, std::size_t depth) {
    ClosedShared& sh = *ctx.sh;
    std::vector<char>& in_closed = ctx.scratch->in_closed;
    std::vector<std::uint32_t>& cond = ctx.scratch->cond_scratch[depth];
    std::vector<std::size_t>& supports = ctx.scratch->support_scratch[depth];
    // One allocation per depth slot and task at most: a node keeps at most
    // its parent's list.
    cond.reserve(parent_cond.size());
    supports.reserve(parent_cond.size());
    // The list is ascending, so the items below `start` are its prefix; they
    // are kept as they are. supports[k] belongs to cond[first + k].
    const auto tail =
        std::lower_bound(parent_cond.begin(), parent_cond.end(), start);
    cond.assign(parent_cond.begin(), tail);
    const std::size_t first = cond.size();
    supports.clear();
    for (auto it = tail; it != parent_cond.end(); ++it) {
        const ItemId i = sh.frequent[*it];
        std::size_t support = 0;  // uncounted: closed
        if (!in_closed[i]) {
            // Fused count: extensions that die on min_sup never materialize
            // a cover (the common case).
            support = tidset.AndCount(sh.db->ItemCover(i));
            ++ctx.nodes;
            if (ctx.guard->Check(
                    sh.progress.emitted.load(std::memory_order_relaxed),
                    sh.progress.est_bytes.load(std::memory_order_relaxed)) !=
                BudgetBreach::kNone) {
                return false;
            }
            if (support < sh.min_sup) continue;
        }
        cond.push_back(*it);
        supports.push_back(support);
    }

    for (std::size_t k = first; k < cond.size(); ++k) {
        const std::size_t fi = cond[k];
        const ItemId i = sh.frequent[fi];
        if (in_closed[i]) continue;
        const std::size_t support = supports[k - first];
        // Survivors write into this depth's reusable slot instead of
        // allocating a fresh vector.
        BitVector& extended = ctx.scratch->cover_scratch[depth];
        extended.AssignAnd(tidset, sh.db->ItemCover(i));

        ++ctx.closure_checks;
        Itemset& closure = ctx.scratch->closure_scratch[depth];
        if (!CloseExtension(*sh.db, sh.frequent, cond, in_closed, extended, i,
                            sh.max_len, &closure)) {
            continue;
        }
        if (!MayEmit(sh)) return false;
        ctx.emitter->PushRank(static_cast<std::uint32_t>(fi));
        Pattern p;
        p.items = closure;
        p.support = support;
        sh.progress.AddEmitted();
        sh.progress.AddBytes(sizeof(Pattern) +
                             p.items.capacity() * sizeof(ItemId));
        ctx.emitter->Emit(std::move(p));

        // A closure at the length bound is a leaf: its descendants are longer.
        const bool leaf = closure.size() == sh.max_len;
        // Estimated subtree work: cover rows × extension items still ahead.
        const std::size_t est = support * (sh.frequent.size() - fi);
        if (!leaf && sh.group != nullptr && est > sh.split_threshold) {
            SpawnClosedSubtree(ctx, closure, extended, cond, fi + 1, depth + 1);
        } else if (!leaf) {
            for (ItemId j : closure) in_closed[j] = 1;
            const bool ok =
                ClosedDfs(ctx, closure, extended, cond, fi + 1, depth + 1);
            // Restore membership to the parent closed set.
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

void RunClosedSubtreeTask(ClosedShared* sh,
                          std::shared_ptr<ClosedSubtree> holder, ShardKey path,
                          std::size_t slot) {
    ClosedScratch& scratch = sh->scratch->At(slot);
    scratch.in_closed.assign(sh->db->num_items(), 0);
    for (ItemId j : holder->closed) scratch.in_closed[j] = 1;
    // Depth never exceeds the number of frequent items: each level adds at
    // least one item to the closed set. A node at that depth (or the root
    // when nothing is frequent) still writes its conditional-list slot.
    const std::size_t depths = sh->frequent.size() + 1;
    if (scratch.cover_scratch.size() < depths) {
        scratch.cover_scratch.resize(depths);
        scratch.closure_scratch.resize(depths);
        scratch.cond_scratch.resize(depths);
        scratch.support_scratch.resize(depths);
    }
    BudgetGuard guard(TaskBudget(sh->budget, sh->timer));
    ShardEmitter emitter(&sh->shards, std::move(path));
    ClosedCtx ctx{sh, &guard, &emitter, &scratch, slot};
    bool ok = true;
    if (holder->emit_closed) {
        ok = MayEmit(*sh);
        if (ok) {
            Pattern p;
            p.items = holder->closed;
            p.support = holder->tidset.Count();
            sh->progress.AddEmitted();
            emitter.Emit(std::move(p));
        }
    }
    if (!ok || !ClosedDfs(ctx, holder->closed, holder->tidset, holder->cond,
                          holder->start, holder->depth)) {
        sh->RecordFirstBreach(guard.breach());
    }
    emitter.Flush();
    sh->nodes.fetch_add(ctx.nodes, std::memory_order_relaxed);
    sh->closures.fetch_add(ctx.closure_checks, std::memory_order_relaxed);
}

void SpawnClosedSubtree(ClosedCtx& ctx, const Itemset& closure,
                        const BitVector& tidset,
                        const std::vector<std::uint32_t>& cond,
                        std::size_t start, std::size_t depth) {
    ClosedShared& sh = *ctx.sh;
    auto holder = std::make_shared<ClosedSubtree>();
    holder->closed = closure;
    holder->tidset = tidset;
    holder->cond = cond;
    holder->start = start;
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

}  // namespace

Result<MineOutcome<Pattern>> ClosedMiner::MineBudgeted(
    const TransactionDatabase& db, const MinerConfig& config) const {
    const std::size_t n = db.num_transactions();
    const std::size_t min_sup = ResolveMinSup(config, n);

    ClosedShared shared(config, min_sup);
    shared.db = &db;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        if (db.ItemSupport(i) >= min_sup) shared.frequent.push_back(i);
    }

    // The DFS root: the closure of the empty set (items present in every
    // transaction) over the all-ones cover. Each frequent item outside it
    // spans an independent LCM subproblem below the root.
    auto root = std::make_shared<ClosedSubtree>();
    root->tidset = BitVector(n);
    root->tidset.Fill();
    for (std::size_t fi = 0; fi < shared.frequent.size(); ++fi) {
        const ItemId i = shared.frequent[fi];
        if (db.ItemSupport(i) == n) root->closed.push_back(i);
        root->cond.push_back(static_cast<std::uint32_t>(fi));
    }
    root->emit_closed = !root->closed.empty() && n >= min_sup &&
                        root->closed.size() <= config.max_pattern_len;

    // Recursive decomposition (DESIGN.md §17): the root task walks the
    // subproblems in serial order and, above one thread, re-submits any
    // closure subtree over the split threshold, so parallelism follows the
    // (exponentially skewed) subtree sizes instead of the first level's item
    // count. At one thread there is no pool: the root task runs inline on
    // this thread at slot 0 with a null group, which never splits.
    const std::size_t threads =
        std::min(ResolveNumThreads(config.num_threads),
                 shared.frequent.size() - root->closed.size());
    if (threads <= 1) {
        WorkerLocal<ClosedScratch> scratch(1);
        shared.scratch = &scratch;
        RunClosedSubtreeTask(&shared, root, {}, /*slot=*/0);
    } else {
        ThreadPool pool(threads);
        WorkerLocal<ClosedScratch> scratch(pool.num_slots());
        TaskGroup group(pool);
        shared.scratch = &scratch;
        shared.group = &group;
        shared.num_workers = pool.num_workers();
        group.SubmitSlotted([&shared, root](std::size_t slot) {
            RunClosedSubtreeTask(&shared, root, {}, slot);
        });
        group.Wait();
    }
    // Closed sets are emitted at unique DFS positions and a truncated task
    // only drops the tail of its shards, so the merge needs no dedup.
    MineOutcome<Pattern> outcome;
    std::vector<Pattern>& out = outcome.patterns;
    shared.shards.MergeInto(&out);
    outcome.breach =
        static_cast<BudgetBreach>(shared.breach.load(std::memory_order_relaxed));
    const std::size_t nodes = shared.nodes.load(std::memory_order_relaxed);
    const std::size_t closures = shared.closures.load(std::memory_order_relaxed);

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
