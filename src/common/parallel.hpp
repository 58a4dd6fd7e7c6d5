// Fixed-size work-stealing thread pool for the mining → selection → learning
// hot paths.
//
// Design constraints (DESIGN.md §11, §17):
//  * Determinism. The pool schedules *when* tasks run, never *what they
//    compute*: every parallel call site either fans out over an index space
//    decided up front (each task writes only its own slot, results merged in
//    task-index order) or emits into keyed shards merged in canonical key
//    order (the recursive mining decomposition, DESIGN.md §17). With
//    `num_threads == 1` callers build no pool and run the same code inline
//    on the calling thread: ParallelFor with a null pool, a miner's root
//    task at slot 0 with a null TaskGroup (which never splits).
//  * Budget cooperation. Workers never block inside a task: each parallel
//    region gives every task its own BudgetGuard built from one shared
//    ExecutionBudget (same CancelToken, same wall-clock deadline, shared
//    atomic emitted/memory tallies), so a breach observed by one task is
//    observed by all others within a clock stride — the queue drains and
//    partial results flow back through the normal MineOutcome path.
//  * Recursive decomposition. Tasks may submit further tasks into the same
//    TaskGroup from inside the pool (a mining subtree re-submitting its
//    children). Submissions from a worker go to that worker's own queue
//    (LIFO pop → depth-first locality); the spawning worker never waits for
//    its children — only the region's single TaskGroup::Wait does, and it
//    *helps* (executes queued tasks) instead of idling.
//  * Execution slots. Every task runs under an exclusive *slot index*
//    (workers own slots [0, num_workers); threads helping from Wait() borrow
//    one of kMaxHelperSlots extra slots), so per-slot scratch state — per-depth
//    cover buffers — is reused across tasks without locks or races
//    (WorkerLocal<T> below).
//  * Observability. The pool publishes `dfp.parallel.*` metrics on
//    destruction: tasks executed (`tasks`), steals (`steals`), the queue
//    depth high-water mark, workers, and worker utilization (busy time /
//    wall time summed over workers). Process-lifetime busy/wall tallies are
//    exposed so the pipeline can report a per-train utilization gauge across
//    the many short-lived pools a train creates.
//
// Concurrency model: one mutex-guarded deque per worker plus round-robin
// external submission. Workers pop LIFO from their own deque (cache-friendly
// for the mining DFS fan-out) and steal FIFO from siblings. This is
// deliberately lock-based rather than a lock-free Chase–Lev deque: tasks here
// are coarse (a conditional subtree above the split threshold, an SMO pair
// solve, a CV fold), so queue overhead is noise, and the mutexes make the
// pool trivially clean under ThreadSanitizer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/budget.hpp"

namespace dfp {

/// Resolves a requested thread count: 0 = one worker per hardware thread
/// (at least 1), anything else is taken literally.
std::size_t ResolveNumThreads(std::size_t requested);

class TaskGroup;

/// Fixed-size work-stealing pool. Construction spawns the workers; the
/// destructor drains nothing — it waits only for tasks already *running* and
/// asserts the queues are empty (every submit happens through a TaskGroup,
/// and TaskGroup::Wait returns only when its tasks finished).
class ThreadPool {
  public:
    /// Sentinel for "no preferred queue" (round-robin submission).
    static constexpr std::size_t kNoQueue = static_cast<std::size_t>(-1);
    /// Extra execution slots for non-worker threads helping from Wait().
    static constexpr std::size_t kMaxHelperSlots = 16;

    /// Spawns `num_workers` workers (minimum 1).
    explicit ThreadPool(std::size_t num_workers);
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;
    /// Joins all workers and flushes `dfp.parallel.*` metrics.
    ~ThreadPool();

    std::size_t num_workers() const { return workers_.size(); }

    /// Upper bound (exclusive) on the slot index any task of this pool can
    /// observe: workers plus helper slots. Sizes WorkerLocal scratch.
    std::size_t num_slots() const {
        return workers_.size() + kMaxHelperSlots;
    }

    /// Lifetime totals (exposed for tests; also published as metrics).
    std::uint64_t tasks_executed() const {
        return tasks_executed_.load(std::memory_order_relaxed);
    }
    std::uint64_t steals() const {
        return steals_.load(std::memory_order_relaxed);
    }
    std::uint64_t max_queue_depth() const {
        return max_queue_depth_.load(std::memory_order_relaxed);
    }

    /// Process-lifetime tallies across all pools, accumulated when each pool
    /// is destroyed: worker busy nanoseconds and worker wall nanoseconds
    /// (wall time × workers). A caller spanning several short-lived pools
    /// (one pipeline Train) diffs these to compute its own utilization.
    static std::uint64_t ProcessBusyNs();
    static std::uint64_t ProcessWorkerWallNs();

  private:
    friend class TaskGroup;

    /// Tasks receive the exclusive execution-slot index they run under.
    using Task = std::function<void(std::size_t)>;

    struct WorkerQueue {
        std::mutex mu;
        std::deque<Task> tasks;
    };

    /// Enqueues one task and wakes a worker. `queue` selects the target
    /// worker queue (a worker submitting its own children passes its index
    /// for LIFO locality); kNoQueue means round-robin. Called by TaskGroup.
    void Submit(Task task, std::size_t queue);

    /// Runs one queued task on the calling thread if any is available.
    /// `self` is the preferred queue index; `slot` the exclusive execution
    /// slot the task runs under. Returns false when every queue was empty at
    /// the time of the scan.
    bool RunOneTask(std::size_t self, std::size_t slot);

    /// Borrows / returns a helper execution slot for a non-worker thread
    /// helping from Wait(). AcquireHelperSlot returns kNoQueue when all
    /// helper slots are taken (the caller then waits without helping — rare:
    /// it needs > kMaxHelperSlots distinct threads blocked in Wait at once).
    std::size_t AcquireHelperSlot();
    void ReleaseHelperSlot(std::size_t slot);

    void WorkerLoop(std::size_t index);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex wake_mu_;
    std::condition_variable wake_cv_;
    std::atomic<bool> shutdown_{false};
    std::atomic<std::size_t> next_queue_{0};
    std::atomic<std::uint64_t> queued_{0};  // tasks submitted, not yet started
    std::atomic<std::uint64_t> helper_slots_{0};  // bitmask of borrowed slots

    // Lifetime tallies, flushed to the obs registry by the destructor.
    std::atomic<std::uint64_t> tasks_executed_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> max_queue_depth_{0};
    std::atomic<std::uint64_t> busy_ns_{0};
    std::chrono::steady_clock::time_point created_ = std::chrono::steady_clock::now();
};

/// A batch of tasks whose completion can be awaited. Wait() *helps*: while
/// tasks of any group are pending in the pool it executes them on the calling
/// thread (under a borrowed helper slot), so nested parallel regions (grid
/// search → CV folds → OvO pairs) cannot deadlock the fixed-size pool, and
/// recursive mining splits keep every thread busy until the frontier drains.
class TaskGroup {
  public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;
    /// Waits for stragglers (Wait() is idempotent and called here defensively).
    ~TaskGroup() { Wait(); }

    /// Enqueues `fn` (round-robin). Exceptions must not escape `fn` (tasks
    /// run on pool threads; the mining/learning call sites report failures
    /// through their Status/breach slots instead).
    void Submit(std::function<void()> fn);

    /// Enqueues a slot-aware task: `fn` receives the exclusive execution
    /// slot it runs under (index into WorkerLocal scratch). `from_queue` is
    /// the submitting worker's own queue for LIFO locality (pass the slot a
    /// running task received if it is < num_workers()), or
    /// ThreadPool::kNoQueue for round-robin. Tasks may call SubmitSlotted on
    /// their own group from inside the pool — that is the recursive mining
    /// decomposition path; the group's Wait() returns only after the whole
    /// spawn tree finished.
    void SubmitSlotted(std::function<void(std::size_t)> fn,
                       std::size_t from_queue = ThreadPool::kNoQueue);

    /// Blocks until every task submitted to this group has finished, running
    /// queued tasks on the calling thread while it waits.
    void Wait();

  private:
    ThreadPool& pool_;
    std::atomic<std::size_t> pending_{0};
    std::mutex done_mu_;
    std::condition_variable done_cv_;
};

/// Splits [0, n) into contiguous chunks (≈ 4 per worker, never smaller than
/// `min_grain`) and runs `body(begin, end)` for each, blocking until all
/// chunks finished. With a null pool, one worker, or a single chunk the body
/// runs inline on the calling thread — the serial path, exactly.
///
/// `body` must only write to disjoint, index-addressed state: chunk
/// boundaries are deterministic, execution order is not.
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t min_grain = 1);

/// Per-execution-slot scratch storage, lazily constructed on first use. A
/// slot is exclusive to one running task at a time (see ThreadPool), so the
/// returned reference is race-free for the duration of the task without any
/// locking — this is how mining workers own their per-depth scratch
/// (DESIGN.md §17) instead of constructing it per task.
template <typename T>
class WorkerLocal {
  public:
    explicit WorkerLocal(std::size_t num_slots) : slots_(num_slots) {}

    /// Scratch for `slot`; constructed on first use by that slot.
    T& At(std::size_t slot) {
        auto& p = slots_[slot];
        if (p == nullptr) p = std::make_unique<T>();
        return *p;
    }

    std::size_t size() const { return slots_.size(); }

  private:
    std::vector<std::unique_ptr<T>> slots_;
};

/// Shared tallies that let per-task BudgetGuards enforce *global* caps across
/// a parallel region: tasks add their emissions here and pass the running
/// totals to BudgetGuard::Check(), so a pattern/memory cap fires pool-wide
/// (approximately — concurrent emissions may overshoot by at most one pattern
/// per execution slot) and a deadline/cancel breach is observed by every task.
struct SharedMineProgress {
    std::atomic<std::size_t> emitted{0};
    std::atomic<std::size_t> est_bytes{0};

    std::size_t AddEmitted(std::size_t n = 1) {
        return emitted.fetch_add(n, std::memory_order_relaxed) + n;
    }
    std::size_t AddBytes(std::size_t n) {
        return est_bytes.fetch_add(n, std::memory_order_relaxed) + n;
    }
};

/// Builds the per-task budget for a parallel region: same caps and token as
/// `budget`, with the wall-clock deadline re-anchored to the time remaining
/// on `timer` (so late-starting tasks share the region's single deadline
/// instead of getting a fresh window).
ExecutionBudget TaskBudget(const ExecutionBudget& budget,
                           const DeadlineTimer& timer);

}  // namespace dfp
