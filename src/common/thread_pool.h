// Fixed-size thread pool with a blocking, work-sharing parallel_for. Used by
// the CPU convolution kernels, the SGEMM substrate, the FFT and the
// framework layers; sized from UCUDNN_NUM_THREADS (default: hardware
// concurrency; invalid values are rejected with a warning instead of
// wrapping to a huge worker count).
//
// parallel_for is the only parallel loop. Its body receives a contiguous
// range [begin, end) and iterates it itself, so the type-erased call happens
// once per chunk, never per element, and the inner loop can vectorize.
// `min_chunk` is the grain: a count at or below it runs inline on the
// caller, with no fork/join.
//
// parallel_for chunks are claimed from a shared atomic cursor, so
//  - the calling thread executes chunks itself instead of blocking idle, and
//  - nested calls (a parallel_for issued from inside a pool worker) share
//    their chunks with any idle workers instead of collapsing to a single
//    inline chunk. The caller of a nested loop can always finish the whole
//    range alone, so nesting never deadlocks even when every worker is busy.
//
// An idle worker watches the queue for a short while before it blocks, so
// the next loop of a burst (a kernel's lowering, GEMM and scatter, one layer
// after another) starts without a condition-variable wake.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace ucudnn {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Splits [0, count) into contiguous chunks and runs
  /// `body(begin, end, chunk_index)` until all chunks complete. Chunk indices
  /// are dense in [0, chunks) with chunks <= num_threads(), and each index
  /// executes on exactly one thread (workspace scratch indexed by
  /// chunk_index stays race-free). The calling thread participates: it claims
  /// and runs chunks alongside the workers, then waits for stragglers. Runs
  /// inline when count is small or the pool has one thread. Exceptions from
  /// `body` are rethrown (first one wins); all chunks still execute.
  void parallel_for(
      std::int64_t count,
      const std::function<void(std::int64_t, std::int64_t, std::size_t)>& body,
      std::int64_t min_chunk = 1);

  /// Process-wide shared pool.
  static ThreadPool& global();

  /// Resolves the worker count for the global pool from UCUDNN_NUM_THREADS:
  /// unset -> hardware concurrency; malformed or < 1 -> hardware concurrency
  /// with a warning; values above kMaxThreads are clamped. Never throws.
  static std::size_t num_threads_from_env() noexcept;

  /// Upper bound accepted from UCUDNN_NUM_THREADS before clamping.
  static constexpr std::int64_t kMaxThreads = 1024;

 private:
  struct ForState;

  void worker_loop();
  static void run_chunks(ForState& state);

  std::vector<std::thread> workers_;  // written only by the constructor
  Mutex mutex_{"ThreadPool"};
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mutex_);
  // tasks_.size(), written under mutex_ and read without it by idle workers
  // deciding whether to block.
  std::atomic<std::size_t> queued_{0};
  CondVar cv_;
  bool stop_ GUARDED_BY(mutex_) = false;
};

}  // namespace ucudnn
