#include "fpm/eclat.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/parallel.hpp"
#include "common/string_util.hpp"
#include "fpm/shard.hpp"
#include "obs/metrics.hpp"

namespace dfp {

namespace {

// One extension of the current class prefix: its item, exact support, and
// its cover in either representation. Classes are uniform-form: every member
// of a class holds a tidset, or every member holds a diffset relative to the
// class prefix (dEclat, Zaki & Gouda 2003). Supports are exact integers under
// both forms, so pattern output is identical whichever form is chosen.
struct Member {
    ItemId item = 0;
    std::size_t support = 0;
    const BitVector* set = nullptr;
};

// Per-depth reusable storage: candidate staging, the materialized member
// list, and a bitvector pool that is written in place (AssignAnd/AssignAndNot
// into existing words — no allocation after first touch of a depth).
struct EclatLevel {
    std::vector<std::pair<std::size_t, std::size_t>> staged;  // (member idx, support)
    std::vector<Member> members;
    std::vector<BitVector> pool;
};

// Per-task scratch; sized once so recursion never reallocates `levels`.
struct EclatScratch {
    std::vector<EclatLevel> levels;
};

void FlushEclatMetrics(std::size_t intersections, std::size_t diffset_classes,
                       std::size_t emitted, bool budget_abort) {
    static auto& nodes =
        obs::Registry::Get().GetCounter("dfp.fpm.eclat.nodes_expanded");
    static auto& diff =
        obs::Registry::Get().GetCounter("dfp.fpm.eclat.diffset_classes");
    static auto& patterns =
        obs::Registry::Get().GetCounter("dfp.fpm.eclat.patterns_emitted");
    static auto& aborts =
        obs::Registry::Get().GetCounter("dfp.fpm.eclat.budget_aborts");
    nodes.Inc(intersections);
    diff.Inc(diffset_classes);
    patterns.Inc(emitted);
    if (budget_abort) aborts.Inc();
}

// ---------------------------------------------------------------------------
// Recursive equivalence-class decomposition with sharded emission
// (DESIGN.md §17). One DFS serves every thread count: a child class whose
// estimated work (surviving siblings × class-cover rows) exceeds the split
// threshold is copied into a heap-owned holder and re-submitted to the
// TaskGroup when there is one; at one thread the group is null and every
// class is mined inline. Workers reuse a per-slot EclatScratch (the level
// pools), and emit into DFS-position-keyed shards whose merge is the serial
// emission sequence.
// ---------------------------------------------------------------------------

// A class to mine: its prefix, its members, and the bitvector storage the
// members point into (copied out of the spawning task's level pool, which is
// overwritten as that task continues mining its own siblings). The root
// class has an empty prefix and members that borrow the database's covers.
struct EclatClassHolder {
    Itemset prefix;
    std::vector<BitVector> sets;
    std::vector<Member> members;
    bool diffset_form = false;
    std::size_t depth = 0;
};

struct EclatShared {
    std::size_t min_sup = 0;
    std::size_t max_len = 0;
    std::size_t max_patterns = 0;
    std::size_t split_threshold = 0;
    std::size_t max_depth = 0;  // root class size: sizes per-slot level pools
    const ExecutionBudget* budget = nullptr;
    DeadlineTimer timer;
    SharedMineProgress progress;
    ShardCollector shards;
    TaskGroup* group = nullptr;  // null at one thread: nothing splits
    WorkerLocal<EclatScratch>* scratch = nullptr;
    std::size_t num_workers = 0;
    std::atomic<int> breach{static_cast<int>(BudgetBreach::kNone)};
    std::atomic<std::uint64_t> intersections{0};
    std::atomic<std::uint64_t> diffset_classes{0};

    EclatShared(const MinerConfig& config, std::size_t min_sup_in)
        : min_sup(min_sup_in),
          max_len(config.max_pattern_len),
          max_patterns(config.max_patterns),
          split_threshold(config.split_work_threshold),
          budget(&config.budget),
          timer(config.budget.time_budget_ms) {}

    void RecordFirstBreach(BudgetBreach b) {
        int expected = static_cast<int>(BudgetBreach::kNone);
        breach.compare_exchange_strong(expected, static_cast<int>(b),
                                       std::memory_order_relaxed);
    }
};

struct EclatCtx {
    EclatShared* sh;
    BudgetGuard* guard;
    ShardEmitter* emitter;
    EclatScratch* scratch;
    std::size_t slot;
    std::size_t intersections = 0;    // fused set-count kernels evaluated
    std::size_t diffset_classes = 0;  // classes mined in diffset form
};

// Writes the class of `x`'s staged siblings (indices into `members`) into
// `sets` (grown, never shrunk) and `out`, in one of three forms:
//   diffset parent:            d(PXY)  = d(PY) ∧ ¬d(PX)
//   tidset parent, diffsets:   d((PX)Y) = t(PX) ∧ ¬t(PY)
//   tidset parent and child:   t(PXY)  = t(PX) ∧ t(PY)
void MaterializeClass(
    const Member& x, const Member* members,
    const std::vector<std::pair<std::size_t, std::size_t>>& staged,
    bool diffset_form, bool child_diffsets, std::vector<BitVector>* sets,
    std::vector<Member>* out) {
    if (sets->size() < staged.size()) sets->resize(staged.size());
    out->clear();
    for (std::size_t s = 0; s < staged.size(); ++s) {
        const auto [j, support] = staged[s];
        const Member& y = members[j];
        BitVector& set = (*sets)[s];
        if (diffset_form) {
            set.AssignAndNot(*y.set, *x.set);
        } else if (child_diffsets) {
            set.AssignAndNot(*x.set, *y.set);
        } else {
            set.AssignAnd(*x.set, *y.set);
        }
        out->push_back(Member{y.item, support, &set});
    }
}

void RunEclatClassTask(EclatShared* sh,
                       std::shared_ptr<EclatClassHolder> holder, ShardKey path,
                       std::size_t slot);

bool MineOne(EclatCtx& ctx, Itemset& prefix, const Member* members,
             std::size_t m, std::size_t k, bool diffset_form,
             std::size_t depth);

// Emits every member of a class and mines its child classes. Members are in
// ascending item order, which reproduces the candidate order (and therefore
// the emission sequence) of the plain tidset DFS exactly. Returns false when
// the execution budget fires.
bool MineClass(EclatCtx& ctx, Itemset& prefix, const Member* members,
               std::size_t m, bool diffset_form, std::size_t depth) {
    for (std::size_t k = 0; k < m; ++k) {
        if (!MineOne(ctx, prefix, members, m, k, diffset_form, depth)) {
            return false;
        }
    }
    return true;
}

// Emits `prefix ∪ {members[k].item}` and mines (or splits off) its class.
bool MineOne(EclatCtx& ctx, Itemset& prefix, const Member* members,
             std::size_t m, std::size_t k, bool diffset_form,
             std::size_t depth) {
    EclatShared& sh = *ctx.sh;
    const Member& x = members[k];
    if (ctx.guard->Check(
            sh.progress.emitted.load(std::memory_order_relaxed),
            sh.progress.est_bytes.load(std::memory_order_relaxed)) !=
        BudgetBreach::kNone) {
        return false;
    }

    ctx.emitter->PushRank(static_cast<std::uint32_t>(k));
    prefix.push_back(x.item);
    Pattern p;
    p.items = prefix;
    p.support = x.support;
    sh.progress.AddEmitted();
    sh.progress.AddBytes(sizeof(Pattern) + p.items.capacity() * sizeof(ItemId));
    ctx.emitter->Emit(std::move(p));

    bool ok = true;
    if (prefix.size() < sh.max_len && k + 1 < m) {
        // Stage the surviving siblings with fused count kernels — no set is
        // materialized for an extension that dies on min_sup. Anti-monotone
        // class pruning: siblings that failed min_sup at this class never
        // re-enter deeper classes.
        EclatLevel& lvl = ctx.scratch->levels[depth];
        lvl.staged.clear();
        std::size_t tidset_mass = 0;
        std::size_t diffset_mass = 0;
        for (std::size_t j = k + 1; j < m; ++j) {
            const Member& y = members[j];
            // Tidset pair:  sup = |t(PX) ∧ t(PY)|.
            // Diffset pair: sup = sup(PX) − |d(PY) ∧ ¬d(PX)|  (dEclat).
            const std::size_t support =
                diffset_form ? x.support - y.set->AndNotCount(*x.set)
                             : x.set->AndCount(*y.set);
            ++ctx.intersections;
            if (support < sh.min_sup) continue;
            lvl.staged.emplace_back(j, support);
            tidset_mass += support;
            diffset_mass += x.support - support;
        }
        if (!lvl.staged.empty()) {
            // Once a class is in diffset form its children stay diffsets
            // (reconstructing tidsets would need the whole ancestor chain);
            // a tidset class switches when the diffsets are smaller in
            // aggregate — on dense data that is almost immediately.
            const bool child_diffsets =
                diffset_form || diffset_mass < tidset_mass;
            if (child_diffsets) ++ctx.diffset_classes;
            // Estimated class work: surviving siblings × class-cover rows.
            const std::size_t est = lvl.staged.size() * x.support;
            if (sh.group != nullptr && est > sh.split_threshold) {
                // Split: materialize the child class into its own holder
                // (this task's level pool is reused for its next sibling)
                // and hand the whole class to the pool.
                auto holder = std::make_shared<EclatClassHolder>();
                holder->prefix = prefix;
                holder->diffset_form = child_diffsets;
                holder->depth = depth + 1;
                MaterializeClass(x, members, lvl.staged, diffset_form,
                                 child_diffsets, &holder->sets,
                                 &holder->members);
                ctx.emitter->Flush();  // contiguity: shard ends at the spawn
                ShardKey child_path = ctx.emitter->path();
                const std::size_t from = ctx.slot < sh.num_workers
                                             ? ctx.slot
                                             : ThreadPool::kNoQueue;
                sh.group->SubmitSlotted(
                    [sh_ptr = &sh, holder = std::move(holder),
                     child_path =
                         std::move(child_path)](std::size_t slot) mutable {
                        RunEclatClassTask(sh_ptr, std::move(holder),
                                          std::move(child_path), slot);
                    },
                    from);
            } else {
                MaterializeClass(x, members, lvl.staged, diffset_form,
                                 child_diffsets, &lvl.pool, &lvl.members);
                ok = MineClass(ctx, prefix, lvl.members.data(),
                               lvl.members.size(), child_diffsets, depth + 1);
            }
        }
    }
    prefix.pop_back();
    ctx.emitter->PopRank();
    return ok;
}

void RunEclatClassTask(EclatShared* sh,
                       std::shared_ptr<EclatClassHolder> holder, ShardKey path,
                       std::size_t slot) {
    EclatScratch& scratch = sh->scratch->At(slot);
    // Level pools are indexed by absolute depth; depth never exceeds the root
    // class size. Sized once per slot (idempotent across tasks of one mine).
    if (scratch.levels.size() < sh->max_depth) {
        scratch.levels.resize(sh->max_depth);
    }
    BudgetGuard guard(TaskBudget(*sh->budget, sh->timer), sh->max_patterns);
    ShardEmitter emitter(&sh->shards, std::move(path));
    EclatCtx ctx{sh, &guard, &emitter, &scratch, slot};
    Itemset prefix = holder->prefix;
    if (!MineClass(ctx, prefix, holder->members.data(), holder->members.size(),
                   holder->diffset_form, holder->depth)) {
        sh->RecordFirstBreach(guard.breach());
    }
    emitter.Flush();
    sh->intersections.fetch_add(ctx.intersections, std::memory_order_relaxed);
    sh->diffset_classes.fetch_add(ctx.diffset_classes,
                                  std::memory_order_relaxed);
}

}  // namespace

Result<MineOutcome<Pattern>> EclatMiner::MineBudgeted(
    const TransactionDatabase& db, const MinerConfig& config) const {
    const std::size_t min_sup = ResolveMinSup(config, db.num_transactions());
    MineOutcome<Pattern> outcome;
    std::vector<Pattern>& out = outcome.patterns;

    // Root class: the frequent singletons, with their covers *borrowed* from
    // the database's vertical index — first-level classes share these
    // read-only views instead of copying tidset vectors per prefix.
    auto root = std::make_shared<EclatClassHolder>();
    for (ItemId i = 0; i < db.num_items(); ++i) {
        const std::size_t support = db.ItemSupport(i);
        if (support >= min_sup) {
            root->members.push_back(Member{i, support, &db.ItemCover(i)});
        }
    }

    // Recursive decomposition (DESIGN.md §17): the root task walks the class
    // tree in serial order and, above one thread, re-submits any child class
    // over the split threshold, so parallelism follows the (exponentially
    // skewed) class sizes instead of the first level's item count. At one
    // thread there is no pool: the root task runs inline on this thread at
    // slot 0 with a null group, which never splits.
    EclatShared shared(config, min_sup);
    shared.max_depth = root->members.size();
    const std::size_t threads =
        std::min(ResolveNumThreads(config.num_threads), root->members.size());
    if (threads <= 1) {
        WorkerLocal<EclatScratch> scratch(1);
        shared.scratch = &scratch;
        RunEclatClassTask(&shared, root, {}, /*slot=*/0);
    } else {
        ThreadPool pool(threads);
        WorkerLocal<EclatScratch> scratch(pool.num_slots());
        TaskGroup group(pool);
        shared.scratch = &scratch;
        shared.group = &group;
        shared.num_workers = pool.num_workers();
        group.SubmitSlotted([&shared, root](std::size_t slot) {
            RunEclatClassTask(&shared, root, {}, slot);
        });
        group.Wait();
    }
    shared.shards.MergeInto(&out);
    outcome.breach =
        static_cast<BudgetBreach>(shared.breach.load(std::memory_order_relaxed));
    const std::size_t intersections =
        shared.intersections.load(std::memory_order_relaxed);
    const std::size_t diffset_classes =
        shared.diffset_classes.load(std::memory_order_relaxed);

    if (outcome.truncated()) {
        FlushEclatMetrics(intersections, diffset_classes, out.size(), true);
        RecordBreach("fpm.eclat", outcome.breach,
                     static_cast<double>(out.size()));
        FilterPatterns(config, &out);
        return outcome;
    }
    FilterPatterns(config, &out);
    FlushEclatMetrics(intersections, diffset_classes, out.size(), false);
    return outcome;
}

}  // namespace dfp
