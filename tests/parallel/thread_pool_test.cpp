// ThreadPool / TaskGroup / ParallelFor unit tests: coverage of the index
// space, help-while-waiting under nesting, counters, and metric publication.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/parallel.hpp"
#include "obs/metrics.hpp"

namespace dfp {
namespace {

TEST(ResolveNumThreadsTest, ZeroMeansHardwareConcurrency) {
    EXPECT_GE(ResolveNumThreads(0), 1u);
    EXPECT_EQ(ResolveNumThreads(1), 1u);
    EXPECT_EQ(ResolveNumThreads(7), 7u);
}

TEST(ParallelForTest, NullPoolRunsInline) {
    std::vector<int> hits(100, 0);
    ParallelFor(nullptr, hits.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
    for (std::size_t workers : {2u, 4u, 8u}) {
        for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
            ThreadPool pool(workers);
            std::vector<std::atomic<int>> hits(n);
            ParallelFor(&pool, n, [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    hits[i].fetch_add(1, std::memory_order_relaxed);
                }
            });
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(hits[i].load(), 1)
                    << "index " << i << " workers " << workers;
            }
        }
    }
}

TEST(ParallelForTest, MinGrainIsRespected) {
    ThreadPool pool(4);
    std::vector<std::size_t> chunk_sizes;
    std::mutex mu;
    ParallelFor(
        &pool, 100,
        [&](std::size_t begin, std::size_t end) {
            std::lock_guard<std::mutex> lock(mu);
            chunk_sizes.push_back(end - begin);
        },
        /*min_grain=*/25);
    std::size_t total = 0;
    for (std::size_t s : chunk_sizes) {
        total += s;
        EXPECT_GE(s, 25u);  // every chunk at least min_grain
    }
    EXPECT_EQ(total, 100u);
}

TEST(TaskGroupTest, WaitBlocksUntilAllTasksFinish) {
    ThreadPool pool(3);
    std::atomic<int> done{0};
    TaskGroup group(pool);
    for (int i = 0; i < 50; ++i) {
        group.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    EXPECT_EQ(done.load(), 50);
    EXPECT_GE(pool.tasks_executed(), 50u);
}

TEST(TaskGroupTest, WaitIsIdempotent) {
    ThreadPool pool(2);
    std::atomic<int> done{0};
    TaskGroup group(pool);
    group.Submit([&done] { done.fetch_add(1); });
    group.Wait();
    group.Wait();  // second wait must return immediately
    EXPECT_EQ(done.load(), 1);
}

// Nested fan-out (grid search → CV folds → OvO pairs in the real pipeline):
// inner Waits help-execute queued tasks, so a fixed-size pool cannot deadlock
// even when every worker is itself parked inside a Wait.
TEST(TaskGroupTest, NestedParallelRegionsDoNotDeadlock) {
    ThreadPool pool(2);
    std::atomic<int> leaf{0};
    TaskGroup outer(pool);
    for (int i = 0; i < 8; ++i) {
        outer.Submit([&pool, &leaf] {
            TaskGroup inner(pool);
            for (int j = 0; j < 8; ++j) {
                inner.Submit(
                    [&leaf] { leaf.fetch_add(1, std::memory_order_relaxed); });
            }
            inner.Wait();
        });
    }
    outer.Wait();
    EXPECT_EQ(leaf.load(), 64);
}

TEST(ThreadPoolTest, DestructorPublishesParallelMetrics) {
    auto& registry = obs::Registry::Get();
    const auto tasks_before = registry.GetCounter("dfp.parallel.tasks").value();
    {
        ThreadPool pool(3);
        TaskGroup group(pool);
        for (int i = 0; i < 20; ++i) group.Submit([] {});
        group.Wait();
    }
    EXPECT_GE(registry.GetCounter("dfp.parallel.tasks").value(),
              tasks_before + 20);
    EXPECT_DOUBLE_EQ(registry.GetGauge("dfp.parallel.workers").value(), 3.0);
}

// The scheduling telemetry added for the recursive decomposition: every
// executed task is counted, steals are exported, the queue high-water mark is
// recorded, and per-pool utilization lands in [0, 1]. The same busy/wall
// tallies accumulate into the process-wide counters FinishTrain diffs for
// dfp.parallel.train_utilization.
TEST(ThreadPoolTest, DestructorPublishesSchedulingTelemetry) {
    auto& registry = obs::Registry::Get();
    const auto tasks_before = registry.GetCounter("dfp.parallel.tasks").value();
    const auto busy_before = ThreadPool::ProcessBusyNs();
    const auto wall_before = ThreadPool::ProcessWorkerWallNs();
    {
        ThreadPool pool(2);
        TaskGroup group(pool);
        for (int i = 0; i < 32; ++i) group.Submit([] {});
        group.Wait();
        EXPECT_GE(pool.max_queue_depth(), 1u);
    }
    EXPECT_GE(registry.GetCounter("dfp.parallel.tasks").value(),
              tasks_before + 32);
    EXPECT_GE(registry.GetGauge("dfp.parallel.max_queue_depth").value(), 1.0);
    const double utilization =
        registry.GetGauge("dfp.parallel.utilization").value();
    EXPECT_GE(utilization, 0.0);
    EXPECT_LE(utilization, 1.0);
    EXPECT_GE(ThreadPool::ProcessBusyNs(), busy_before);
    EXPECT_GT(ThreadPool::ProcessWorkerWallNs(), wall_before);
}

TEST(SharedMineProgressTest, TalliesAccumulateAcrossCallers) {
    SharedMineProgress progress;
    EXPECT_EQ(progress.AddEmitted(), 1u);
    EXPECT_EQ(progress.AddEmitted(4), 5u);
    EXPECT_EQ(progress.AddBytes(100), 100u);
    EXPECT_EQ(progress.AddBytes(28), 128u);
}

TEST(TaskBudgetTest, ReanchorsDeadlineToRemainingTime) {
    ExecutionBudget unlimited;
    DeadlineTimer no_deadline(unlimited.time_budget_ms);
    EXPECT_LT(TaskBudget(unlimited, no_deadline).time_budget_ms, 0.0);

    ExecutionBudget timed;
    timed.time_budget_ms = 10'000.0;
    timed.max_patterns = 42;
    DeadlineTimer timer(timed.time_budget_ms);
    const ExecutionBudget task = TaskBudget(timed, timer);
    EXPECT_EQ(task.max_patterns, 42u);  // caps/token pass through
    EXPECT_GE(task.time_budget_ms, 0.0);
    EXPECT_LE(task.time_budget_ms, 10'000.0);  // never more than the region's
}

}  // namespace
}  // namespace dfp
