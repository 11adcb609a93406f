#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

#include "common/env.h"
#include "common/logging.h"
#include "common/mathutil.h"

namespace ucudnn {

namespace {

// How long an idle worker watches the queue before blocking. Waking a
// blocked worker through the condition variable cost more than many chunks'
// work: on a 4-vCPU VM a parallel_for over 4096 floats took 10.7 us on two
// threads against 1.7 us on one. With this spin a train_host training
// iteration took about a fifth less time.
constexpr std::chrono::microseconds kIdleSpin{200};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    const auto until = std::chrono::steady_clock::now() + kIdleSpin;
    while (queued_.load(std::memory_order_relaxed) == 0 &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
    }
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // A manual predicate loop (not a wait(lock, pred) lambda) keeps the
      // guarded accesses inside this function where the thread-safety
      // analysis can see the held capability.
      while (!stop_ && tasks_.empty()) cv_.wait(mutex_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      queued_.fetch_sub(1, std::memory_order_relaxed);
    }
    task();
  }
}

// Shared state of one parallel_for. Heap-allocated and owned via shared_ptr
// by the caller AND every helper task: a helper that only gets dequeued after
// the loop already finished must still be able to (cheaply) look at the
// cursor, long after the caller's stack frame is gone.
struct ThreadPool::ForState {
  ForState(const std::function<void(std::int64_t, std::int64_t, std::size_t)>&
               body_fn,
           std::int64_t total, std::int64_t chunk_size, std::int64_t chunks)
      : body(body_fn), count(total), chunk(chunk_size), num_chunks(chunks) {
    remaining.store(chunks, std::memory_order_relaxed);
  }

  // Only dereferenced after a successful cursor claim; every claim happens
  // strictly before the caller (who owns the referenced function) returns.
  const std::function<void(std::int64_t, std::int64_t, std::size_t)>& body;
  const std::int64_t count;
  const std::int64_t chunk;
  const std::int64_t num_chunks;

  std::atomic<std::int64_t> cursor{0};
  std::atomic<std::int64_t> remaining;
  Mutex done_mutex{"ThreadPool.parallel_for.done"};
  CondVar done_cv;
  Mutex error_mutex{"ThreadPool.parallel_for.error"};
  std::exception_ptr error GUARDED_BY(error_mutex);
};

void ThreadPool::run_chunks(ForState& state) {
  for (;;) {
    const std::int64_t index =
        state.cursor.fetch_add(1, std::memory_order_relaxed);
    if (index >= state.num_chunks) return;
    const std::int64_t begin = index * state.chunk;
    const std::int64_t end = std::min(state.count, begin + state.chunk);
    try {
      state.body(begin, end, static_cast<std::size_t>(index));
    } catch (...) {
      MutexLock lock(state.error_mutex);
      if (!state.error) state.error = std::current_exception();
    }
    // The decrement and the notify both happen under done_mutex so the
    // waiter cannot observe remaining == 0 between them and miss the wake.
    MutexLock lock(state.done_mutex);
    if (state.remaining.fetch_sub(1) == 1) {
      state.done_cv.notify_one();
    }
  }
}

void ThreadPool::parallel_for(
    std::int64_t count,
    const std::function<void(std::int64_t, std::int64_t, std::size_t)>& body,
    std::int64_t min_chunk) {
  if (count <= 0) return;
  min_chunk = std::max<std::int64_t>(1, min_chunk);
  const std::int64_t nthreads = static_cast<std::int64_t>(num_threads());
  const std::int64_t max_chunks =
      std::min<std::int64_t>(nthreads, ceil_div(count, min_chunk));
  if (max_chunks <= 1) {
    body(0, count, 0);
    return;
  }
  const std::int64_t chunk = ceil_div(count, max_chunks);
  const std::int64_t num_chunks = ceil_div(count, chunk);

  auto state = std::make_shared<ForState>(body, count, chunk, num_chunks);

  // Helpers beyond num_chunks - 1 could never claim anything: the caller
  // takes chunks too. A helper that loses every claim exits immediately.
  const std::int64_t helpers = std::min(num_chunks - 1, nthreads);
  for (std::int64_t i = 0; i < helpers; ++i) {
    submit([state] { run_chunks(*state); });
  }

  // Caller participation: claim and execute chunks alongside the workers
  // instead of blocking idle. In a nested call (body of another parallel_for
  // running on a pool worker) this also guarantees forward progress when no
  // worker is free — the caller simply runs every chunk itself.
  run_chunks(*state);

  {
    MutexLock lock(state->done_mutex);
    while (state->remaining.load() != 0) state->done_cv.wait(state->done_mutex);
  }
  MutexLock error_lock(state->error_mutex);
  if (state->error) std::rethrow_exception(state->error);
}

std::size_t ThreadPool::num_threads_from_env() noexcept {
  const std::int64_t fallback = static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::int64_t value = fallback;
  try {
    value = env_int("UCUDNN_NUM_THREADS", fallback);
  } catch (const std::exception& e) {
    UCUDNN_LOG_WARN << "UCUDNN_NUM_THREADS is not a valid integer ("
                    << e.what() << "); using " << fallback << " threads";
    value = fallback;
  }
  if (value < 1) {
    // A negative value cast straight to std::size_t would wrap to ~2^64 and
    // the constructor would try to spawn that many workers.
    UCUDNN_LOG_WARN << "UCUDNN_NUM_THREADS=" << value
                    << " is out of range; using " << fallback << " threads";
    value = fallback;
  } else if (value > kMaxThreads) {
    UCUDNN_LOG_WARN << "UCUDNN_NUM_THREADS=" << value << " clamped to "
                    << kMaxThreads;
    value = kMaxThreads;
  }
  return static_cast<std::size_t>(value);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(num_threads_from_env());
  return pool;
}

}  // namespace ucudnn
