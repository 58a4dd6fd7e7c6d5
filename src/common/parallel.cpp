#include "common/parallel.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"

namespace dfp {

namespace {

using Clock = std::chrono::steady_clock;

// How long an idle worker sleeps before rescanning the queues. The wake
// condition variable makes this a backstop, not the wake path.
constexpr auto kIdleWait = std::chrono::milliseconds(10);

// Process-lifetime tallies across every pool, folded in by ~ThreadPool.
std::atomic<std::uint64_t> g_process_busy_ns{0};
std::atomic<std::uint64_t> g_process_worker_wall_ns{0};

}  // namespace

std::size_t ResolveNumThreads(std::size_t requested) {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t num_workers) {
    const std::size_t n = std::max<std::size_t>(1, num_workers);
    queues_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        queues_.push_back(std::make_unique<WorkerQueue>());
    }
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
}

ThreadPool::~ThreadPool() {
    shutdown_.store(true, std::memory_order_release);
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();

    auto& registry = obs::Registry::Get();
    registry.GetCounter("dfp.parallel.tasks")
        .Inc(tasks_executed_.load(std::memory_order_relaxed));
    registry.GetCounter("dfp.parallel.steals")
        .Inc(steals_.load(std::memory_order_relaxed));
    registry.GetGauge("dfp.parallel.workers")
        .Set(static_cast<double>(num_workers()));
    registry.GetGauge("dfp.parallel.max_queue_depth")
        .Set(static_cast<double>(
            max_queue_depth_.load(std::memory_order_relaxed)));
    const std::uint64_t wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             created_)
            .count());
    const std::uint64_t busy = busy_ns_.load(std::memory_order_relaxed);
    g_process_busy_ns.fetch_add(busy, std::memory_order_relaxed);
    g_process_worker_wall_ns.fetch_add(
        wall_ns * static_cast<std::uint64_t>(num_workers()),
        std::memory_order_relaxed);
    if (wall_ns > 0) {
        registry.GetGauge("dfp.parallel.utilization")
            .Set(static_cast<double>(busy) /
                 (static_cast<double>(wall_ns) *
                  static_cast<double>(num_workers())));
    }
}

std::uint64_t ThreadPool::ProcessBusyNs() {
    return g_process_busy_ns.load(std::memory_order_relaxed);
}

std::uint64_t ThreadPool::ProcessWorkerWallNs() {
    return g_process_worker_wall_ns.load(std::memory_order_relaxed);
}

void ThreadPool::Submit(Task task, std::size_t queue) {
    const std::size_t q =
        queue < queues_.size()
            ? queue
            : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                  queues_.size();
    {
        std::lock_guard<std::mutex> lock(queues_[q]->mu);
        queues_[q]->tasks.push_back(std::move(task));
    }
    const std::uint64_t depth =
        queued_.fetch_add(1, std::memory_order_release) + 1;
    std::uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
    while (depth > seen && !max_queue_depth_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
    wake_cv_.notify_one();
}

bool ThreadPool::RunOneTask(std::size_t self, std::size_t slot) {
    Task task;
    const std::size_t n = queues_.size();
    for (std::size_t probe = 0; probe < n; ++probe) {
        const std::size_t q = (self + probe) % n;
        WorkerQueue& wq = *queues_[q];
        std::lock_guard<std::mutex> lock(wq.mu);
        if (wq.tasks.empty()) continue;
        if (probe == 0) {
            // Own queue: LIFO, the most recently pushed (cache-warm) task —
            // for recursive mining splits this walks the subtree depth-first,
            // exactly the order the serial miner would visit it.
            task = std::move(wq.tasks.back());
            wq.tasks.pop_back();
        } else {
            // Steal: FIFO, the oldest task of the victim (largest subtree).
            task = std::move(wq.tasks.front());
            wq.tasks.pop_front();
            steals_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
    }
    if (!task) return false;
    queued_.fetch_sub(1, std::memory_order_relaxed);
    const auto start = Clock::now();
    task(slot);
    busy_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 start)
                .count()),
        std::memory_order_relaxed);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::size_t ThreadPool::AcquireHelperSlot() {
    std::uint64_t mask = helper_slots_.load(std::memory_order_relaxed);
    for (;;) {
        std::size_t bit = 0;
        while (bit < kMaxHelperSlots && ((mask >> bit) & 1u) != 0) ++bit;
        if (bit == kMaxHelperSlots) return kNoQueue;
        const std::uint64_t want = mask | (std::uint64_t{1} << bit);
        if (helper_slots_.compare_exchange_weak(mask, want,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
            return num_workers() + bit;
        }
    }
}

void ThreadPool::ReleaseHelperSlot(std::size_t slot) {
    const std::size_t bit = slot - num_workers();
    helper_slots_.fetch_and(~(std::uint64_t{1} << bit),
                            std::memory_order_release);
}

void ThreadPool::WorkerLoop(std::size_t index) {
    for (;;) {
        if (RunOneTask(index, index)) continue;
        // Queues were empty on the last scan: drain-then-exit on shutdown,
        // otherwise sleep until a submit (or the idle backstop) wakes us.
        if (shutdown_.load(std::memory_order_acquire)) return;
        std::unique_lock<std::mutex> lock(wake_mu_);
        wake_cv_.wait_for(lock, kIdleWait, [this] {
            return shutdown_.load(std::memory_order_acquire) ||
                   queued_.load(std::memory_order_acquire) > 0;
        });
    }
}

void TaskGroup::Submit(std::function<void()> fn) {
    SubmitSlotted([fn = std::move(fn)](std::size_t) { fn(); });
}

void TaskGroup::SubmitSlotted(std::function<void(std::size_t)> fn,
                              std::size_t from_queue) {
    pending_.fetch_add(1, std::memory_order_acq_rel);
    pool_.Submit(
        [this, fn = std::move(fn)](std::size_t slot) {
            fn(slot);
            // Decrement *under* done_mu_: Wait() only returns after observing
            // pending_ == 0 while holding the lock, which the last task can
            // only have released on its way out — so by the time the caller
            // destroys the group, no task will touch the mutex or cv again.
            // A task that spawned children bumped pending_ before reaching
            // this line, so the count never dips to zero while descendants
            // are still queued.
            std::lock_guard<std::mutex> lock(done_mu_);
            if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                done_cv_.notify_all();
            }
        },
        from_queue);
}

void TaskGroup::Wait() {
    {
        // The already-done fast path must still synchronise through done_mu_:
        // the last task decrements pending_ and broadcasts *under* the lock,
        // so an unsynchronised load could observe 0 and let the caller
        // destroy the group while that task is still inside notify_all() /
        // the unlock — acquiring the mutex orders our return (and the
        // group's destruction) after the straggler has fully let go.
        std::lock_guard<std::mutex> lock(done_mu_);
        if (pending_.load(std::memory_order_acquire) == 0) return;
    }
    // Borrow an execution slot so tasks run here can use WorkerLocal scratch
    // without clashing with any worker. If all helper slots are taken (> 16
    // threads blocked in Wait at once), skip helping and just block.
    const std::size_t slot = pool_.AcquireHelperSlot();
    std::size_t probe = 0;
    for (;;) {
        if (slot != ThreadPool::kNoQueue) {
            // Help: execute queued tasks (this group's or anyone's) instead
            // of blocking a thread the fixed-size pool may need.
            while (pending_.load(std::memory_order_acquire) > 0) {
                if (!pool_.RunOneTask(probe++ % pool_.num_workers(), slot)) {
                    break;
                }
            }
        }
        // Destruction-safe exit: conclude "done" only while holding done_mu_
        // (see SubmitSlotted). A timeout loops back to helping — stragglers
        // may have queued nested work this thread can run.
        std::unique_lock<std::mutex> lock(done_mu_);
        if (done_cv_.wait_for(lock, kIdleWait, [this] {
                return pending_.load(std::memory_order_acquire) == 0;
            })) {
            break;
        }
    }
    if (slot != ThreadPool::kNoQueue) pool_.ReleaseHelperSlot(slot);
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t min_grain) {
    if (n == 0) return;
    const std::size_t workers = pool == nullptr ? 1 : pool->num_workers();
    const std::size_t grain = std::max<std::size_t>(1, min_grain);
    // ≈ 4 chunks per worker so steals can balance uneven chunk costs.
    const std::size_t target_chunks = workers * 4;
    const std::size_t chunk =
        std::max(grain, (n + target_chunks - 1) / target_chunks);
    if (workers <= 1 || chunk >= n) {
        body(0, n);
        return;
    }
    TaskGroup group(*pool);
    for (std::size_t begin = 0; begin < n; begin += chunk) {
        const std::size_t end = std::min(n, begin + chunk);
        group.Submit([&body, begin, end] { body(begin, end); });
    }
    group.Wait();
}

ExecutionBudget TaskBudget(const ExecutionBudget& budget,
                           const DeadlineTimer& timer) {
    ExecutionBudget b = budget;
    if (!timer.unlimited()) b.time_budget_ms = timer.remaining_ms();
    return b;
}

}  // namespace dfp
