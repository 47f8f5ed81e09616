// Thread-pool telemetry: dormant by default, and publishing the pool.*
// instruments once a ThreadPoolMetrics observer is installed.
#include "obs/thread_pool_metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace portatune::obs {
namespace {

TEST(ThreadPoolMetrics, DormantByDefault) {
  EXPECT_EQ(thread_pool_observer(), nullptr);
  // A pool used with no observer must leave a fresh registry untouched.
  MetricsRegistry registry;
  {
    ThreadPool pool(2);
    pool.parallel_for(0, 32, [](std::size_t) {});
  }
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST(ThreadPoolMetrics, PublishesPoolInstruments) {
  MetricsRegistry registry;
  {
    ScopedThreadPoolMetrics metrics(&registry);
    // One worker: its on_start/on_finish callbacks are serialized, so
    // the gauges have deterministic final values once the pool joins.
    ThreadPool pool(1);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
      pool.submit([&] { ran.fetch_add(1); }).wait();
    EXPECT_EQ(ran.load(), 8);
  }
  EXPECT_EQ(thread_pool_observer(), nullptr);  // scope uninstalled

  const auto snap = registry.snapshot();
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(registry.counter("pool.tasks_submitted").value(), 8u);
  EXPECT_EQ(registry.counter("pool.tasks_completed").value(), 8u);
  EXPECT_EQ(registry.histogram("pool.queue_wait_seconds").count(), 8u);
  EXPECT_EQ(registry.histogram("pool.execute_seconds").count(), 8u);
  EXPECT_GE(registry.histogram("pool.queue_wait_seconds").min(), 0.0);
  // Occupancy settled back to zero; the queue never held more than the
  // single in-flight task (the submit-side gauge write races the
  // worker-side one, so only the bound is deterministic).
  EXPECT_EQ(registry.gauge("pool.workers_busy").value(), 0.0);
  EXPECT_LE(registry.gauge("pool.queue_depth").value(), 1.0);
}

TEST(ThreadPoolMetrics, ScopeRestoresThePreviousObserver) {
  MetricsRegistry outer_reg, inner_reg;
  ScopedThreadPoolMetrics outer(&outer_reg);
  ThreadPoolObserver* const installed = thread_pool_observer();
  ASSERT_NE(installed, nullptr);
  {
    ScopedThreadPoolMetrics inner(&inner_reg);
    EXPECT_NE(thread_pool_observer(), installed);
  }
  EXPECT_EQ(thread_pool_observer(), installed);
}

TEST(ThreadPoolMetrics, CountsEveryPoolInTheProcess) {
  // The observer is process-wide: two distinct pools both report to it.
  MetricsRegistry registry;
  ScopedThreadPoolMetrics metrics(&registry);
  ThreadPool a(1), b(2);
  a.parallel_for(0, 4, [](std::size_t) {});
  b.parallel_for(0, 4, [](std::size_t) {});
  EXPECT_EQ(registry.counter("pool.tasks_submitted").value(),
            registry.counter("pool.tasks_completed").value());
  EXPECT_GE(registry.counter("pool.tasks_completed").value(), 2u);
}

/// Counts the callbacks in flight and flags any that begins after the
/// test marked it retired (once its uninstallation returned).
class ProbeObserver final : public ThreadPoolObserver {
 public:
  void on_submit(std::size_t) noexcept override { enter(); leave(); }
  void on_start(double, std::size_t) noexcept override {
    enter();
    starts.fetch_add(1);
    leave();
  }
  void on_finish(double) noexcept override { enter(); leave(); }

  std::atomic<int> inside{0};
  std::atomic<int> starts{0};
  std::atomic<bool> retired{false};
  std::atomic<int> late{0};

 private:
  void enter() noexcept {
    inside.fetch_add(1);
    if (retired.load()) late.fetch_add(1);
  }
  void leave() noexcept { inside.fetch_sub(1); }
};

/// Keeps a parallel_for fan-out running on `pool` until destroyed.
class FanOutLoop {
 public:
  explicit FanOutLoop(ThreadPool& pool)
      : thread_([this, &pool] {
          while (!stop_.load()) pool.parallel_for(0, 64, [](std::size_t) {});
        }) {}
  ~FanOutLoop() {
    stop_.store(true);
    thread_.join();
  }
  FanOutLoop(const FanOutLoop&) = delete;
  FanOutLoop& operator=(const FanOutLoop&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(ThreadPoolMetrics, UninstallMidFanOutWaitsForCallbacksInFlight) {
  ThreadPool pool(4);
  std::vector<std::unique_ptr<ProbeObserver>> probes;
  {
    FanOutLoop fan_out(pool);
    for (int round = 0; round < 50; ++round) {
      auto& probe = *probes.emplace_back(std::make_unique<ProbeObserver>());
      set_thread_pool_observer(&probe);
      // Uninstall only once workers are reporting to this observer.
      while (probe.starts.load() < 8) std::this_thread::yield();
      set_thread_pool_observer(nullptr);
      probe.retired.store(true);
      EXPECT_EQ(probe.inside.load(), 0) << "round " << round;
    }
  }
  for (const auto& probe : probes) EXPECT_EQ(probe->late.load(), 0);
}

TEST(ThreadPoolMetrics, ScopeMayEndMidFanOut) {
  // The CLI's shutdown order: the telemetry scope (and with it the
  // observer) is destroyed while global-pool workers may still be
  // finishing tasks. Sanitizer builds catch any callback into the
  // destroyed observer.
  MetricsRegistry registry;
  ThreadPool pool(4);
  FanOutLoop fan_out(pool);
  Counter& completed = registry.counter("pool.tasks_completed");
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t before = completed.value();
    ScopedThreadPoolMetrics metrics(&registry);
    while (completed.value() < before + 8) std::this_thread::yield();
  }
  EXPECT_EQ(thread_pool_observer(), nullptr);
}

}  // namespace
}  // namespace portatune::obs
