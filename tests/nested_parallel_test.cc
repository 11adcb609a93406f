// Regression tests for the nested-parallelism defect: a parallel_for issued
// from inside a pool worker used to collapse to a single inline chunk, so
// batched GEMM under an outer per-image parallel_for ran fully serialized
// per image. These tests pin the work-sharing behavior — nested chunks are
// claimed by idle workers — on a multi-worker global pool.
//
// This binary has a custom main: the global pool is forced to 4 workers via
// UCUDNN_NUM_THREADS before it is first touched, so the tests are
// deterministic on single-core CI machines too.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "gemm/gemm.h"
#include "tensor/tensor.h"

namespace ucudnn {
namespace {

// Records the calling thread and blocks (bounded) until a second distinct
// thread has checked in. A regression that serializes the loop onto one
// thread makes check_in() time out and distinct() stay at 1 — the test then
// fails instead of hanging.
class ThreadRendezvous {
 public:
  void check_in() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    MutexLock lock(mutex_);
    tids_.insert(std::this_thread::get_id());
    cv_.notify_all();
    while (tids_.size() < 2 && std::chrono::steady_clock::now() < deadline) {
      cv_.wait_for_us(mutex_, 10 * 1000);
    }
  }

  std::size_t distinct() {
    MutexLock lock(mutex_);
    return tids_.size();
  }

 private:
  Mutex mutex_{"test.rendezvous"};
  CondVar cv_;
  std::set<std::thread::id> tids_ GUARDED_BY(mutex_);
};

TEST(NestedParallelTest, NestedParallelForSharesChunksWithIdleWorkers) {
  ThreadPool& pool = ThreadPool::global();
  ASSERT_GE(pool.num_threads(), 2u);

  // Run the nested caller on a pool worker (not the main thread) so the
  // inner parallel_for really is the nested-from-a-worker case.
  ThreadRendezvous inner_tids;
  Mutex done_mutex{"test.done"};
  CondVar done_cv;
  bool done = false;
  pool.submit([&] {
    pool.parallel_for(
        64,
        [&](std::int64_t, std::int64_t, std::size_t) { inner_tids.check_in(); },
        /*min_chunk=*/1);
    MutexLock lock(done_mutex);
    done = true;
    done_cv.notify_one();
  });
  {
    MutexLock lock(done_mutex);
    while (!done) done_cv.wait(done_mutex);
  }
  // The old implementation ran the whole nested range inline on the one
  // worker; work sharing must spread chunks across >= 2 threads.
  EXPECT_GE(inner_tids.distinct(), 2u);
}

TEST(NestedParallelTest, BatchedGemmUnderParallelForEachUsesMultipleWorkers) {
  ASSERT_GE(ThreadPool::global().num_threads(), 2u);

  // One small GEMM per "image", dispatched exactly like im2col_batched /
  // gemm_conv dispatch their per-image work.
  constexpr std::int64_t kImages = 8;
  constexpr std::int64_t kM = 24, kN = 24, kK = 24;
  std::vector<float> a(static_cast<std::size_t>(kImages * kM * kK));
  std::vector<float> b(static_cast<std::size_t>(kImages * kK * kN));
  fill_random(a.data(), static_cast<std::int64_t>(a.size()), 11);
  fill_random(b.data(), static_cast<std::int64_t>(b.size()), 12);
  std::vector<float> c(static_cast<std::size_t>(kImages * kM * kN), 0.0f);

  ThreadRendezvous tids;
  ThreadPool::global().parallel_for(
      kImages,
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t image = begin; image < end; ++image) {
          tids.check_in();
          gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, kM, kN, kK, 1.0f,
                      a.data() + image * kM * kK, b.data() + image * kK * kN,
                      0.0f, c.data() + image * kM * kN);
        }
      },
      /*min_chunk=*/1);

  EXPECT_GE(tids.distinct(), 2u);

  // The work-shared results must still be exact parity with the reference.
  std::vector<float> c_ref(static_cast<std::size_t>(kM * kN));
  for (std::int64_t image = 0; image < kImages; ++image) {
    gemm::sgemm_naive(gemm::Trans::kNo, gemm::Trans::kNo, kM, kN, kK, 1.0f,
                      a.data() + image * kM * kK, kK,
                      b.data() + image * kK * kN, kN, 0.0f, c_ref.data(), kN);
    EXPECT_LT(max_rel_diff(c.data() + image * kM * kN, c_ref.data(), kM * kN),
              2e-4)
        << "image " << image;
  }
}

}  // namespace
}  // namespace ucudnn

int main(int argc, char** argv) {
  // Must happen before anything touches ThreadPool::global().
  ::setenv("UCUDNN_NUM_THREADS", "4", 1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
