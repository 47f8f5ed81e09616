#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace portatune {

// Observer lifetime. Every callback runs inside a "pin": the thread counts
// itself in g_callers, then (re)loads the installed observer. An installer
// first clears the pointer, then waits for g_callers to drain, so once it
// returns no thread can still be inside — or about to enter — a callback
// of the observer it replaced. Both sides use seq_cst: either the pin is
// visible to the installer's wait, or the pinned load sees the cleared
// pointer. g_generation counts installations, so a task's on_finish goes
// only to the very installation that saw its on_start, even if a new
// observer reuses the old one's address. The dormant path (no observer)
// never pins: it is the one acquire load of the pointer it always was.
namespace {

std::atomic<std::size_t> g_callers{0};
std::atomic<std::uint64_t> g_generation{0};

class CallbackPin {
 public:
  CallbackPin() noexcept { g_callers.fetch_add(1); }
  ~CallbackPin() { g_callers.fetch_sub(1); }
  CallbackPin(const CallbackPin&) = delete;
  CallbackPin& operator=(const CallbackPin&) = delete;
};

/// One installation of an observer, as seen by a task.
struct Installation {
  ThreadPoolObserver* observer = nullptr;
  std::uint64_t generation = 0;
};

/// The current installation. Call only while pinned.
Installation current_installation() noexcept {
  Installation now;
  now.observer = detail::g_pool_observer.load();
  now.generation = g_generation.load();
  return now;
}

}  // namespace

void detail::notify_submit(std::size_t queue_depth) noexcept {
  const CallbackPin pin;
  if (ThreadPoolObserver* const o = detail::g_pool_observer.load())
    o->on_submit(queue_depth);
}

void set_thread_pool_observer(ThreadPoolObserver* observer) noexcept {
  static std::mutex install_mutex;
  const std::lock_guard lock(install_mutex);
  detail::g_pool_observer.store(nullptr);
  while (g_callers.load() != 0) std::this_thread::yield();
  g_generation.fetch_add(1);
  detail::g_pool_observer.store(observer);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedTask task;
    std::size_t depth;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      depth = queue_.size();
    }
    if (thread_pool_observer() == nullptr) {
      task.fn();
      continue;
    }
    const auto start = std::chrono::steady_clock::now();
    Installation seen;
    {
      const CallbackPin pin;
      seen = current_installation();
      // A zero enqueue stamp means the observer was installed after this
      // task was queued; report an unknown (zero) wait rather than a bogus
      // epoch-relative one.
      const double wait =
          task.enqueued.time_since_epoch().count() != 0
              ? std::chrono::duration<double>(start - task.enqueued).count()
              : 0.0;
      if (seen.observer != nullptr) seen.observer->on_start(wait, depth);
    }
    task.fn();
    if (seen.observer == nullptr) continue;
    const double execute = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const CallbackPin pin;
    const Installation now = current_installation();
    if (now.observer == seen.observer && now.generation == seen.generation)
      seen.observer->on_finish(execute);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, size() * 4);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{begin};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  const std::size_t grain = std::max<std::size_t>(1, n / chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(submit([&, grain] {
      for (;;) {
        const std::size_t lo = next.fetch_add(grain);
        if (lo >= end) return;
        const std::size_t hi = std::min(end, lo + grain);
        try {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          return;
        }
      }
    }));
  }
  for (auto& f : futures) f.wait();
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace portatune
