// Unit tests for src/common: status machinery, env parsing, math helpers,
// aligned buffers, and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/env.h"
#include "common/mathutil.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace ucudnn {
namespace {

TEST(StatusTest, ToStringCoversAllCodes) {
  EXPECT_EQ(to_string(Status::kSuccess), "UCUDNN_STATUS_SUCCESS");
  EXPECT_EQ(to_string(Status::kBadParam), "UCUDNN_STATUS_BAD_PARAM");
  EXPECT_EQ(to_string(Status::kNotSupported), "UCUDNN_STATUS_NOT_SUPPORTED");
  EXPECT_EQ(to_string(Status::kAllocFailed), "UCUDNN_STATUS_ALLOC_FAILED");
}

TEST(StatusTest, ErrorCarriesStatusAndMessage) {
  const Error error(Status::kBadParam, "something");
  EXPECT_EQ(error.status(), Status::kBadParam);
  EXPECT_NE(std::string(error.what()).find("something"), std::string::npos);
  EXPECT_NE(std::string(error.what()).find("BAD_PARAM"), std::string::npos);
}

TEST(StatusTest, CheckThrowsOnlyWhenFalse) {
  EXPECT_NO_THROW(check_param(true, "ok"));
  EXPECT_THROW(check_param(false, "bad"), Error);
}

TEST(StatusTest, ApiBodyTranslatesExceptions) {
  auto api = [](bool fail) -> Status {
    UCUDNN_API_BODY({
      if (fail) throw Error(Status::kNotSupported, "nope");
    });
  };
  EXPECT_EQ(api(false), Status::kSuccess);
  EXPECT_EQ(api(true), Status::kNotSupported);
}

TEST(EnvTest, StringFallback) {
  ::unsetenv("UCUDNN_TEST_STR");
  EXPECT_EQ(env_string("UCUDNN_TEST_STR", "dflt"), "dflt");
  ::setenv("UCUDNN_TEST_STR", "value", 1);
  EXPECT_EQ(env_string("UCUDNN_TEST_STR", "dflt"), "value");
  ::unsetenv("UCUDNN_TEST_STR");
}

TEST(EnvTest, IntParsing) {
  ::setenv("UCUDNN_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("UCUDNN_TEST_INT", 7), 42);
  ::setenv("UCUDNN_TEST_INT", "4x", 1);
  EXPECT_THROW(env_int("UCUDNN_TEST_INT", 7), Error);
  ::unsetenv("UCUDNN_TEST_INT");
  EXPECT_EQ(env_int("UCUDNN_TEST_INT", 7), 7);
}

TEST(EnvTest, ByteSuffixes) {
  EXPECT_EQ(parse_bytes("123"), 123u);
  EXPECT_EQ(parse_bytes("8K"), 8u << 10);
  EXPECT_EQ(parse_bytes("64M"), std::size_t{64} << 20);
  EXPECT_EQ(parse_bytes("2G"), std::size_t{2} << 30);
  EXPECT_EQ(parse_bytes("2g"), std::size_t{2} << 30);
  EXPECT_THROW(parse_bytes("x"), Error);
  EXPECT_THROW(parse_bytes("1T"), Error);
  EXPECT_THROW(parse_bytes("1MM"), Error);
  // A sign or a product past SIZE_MAX must not wrap into a huge size.
  EXPECT_THROW(parse_bytes("-1"), Error);
  EXPECT_THROW(parse_bytes("17179869184G"), Error);
}

TEST(EnvTest, BoolParsing) {
  ::setenv("UCUDNN_TEST_BOOL", "yes", 1);
  EXPECT_TRUE(env_bool("UCUDNN_TEST_BOOL", false));
  ::setenv("UCUDNN_TEST_BOOL", "0", 1);
  EXPECT_FALSE(env_bool("UCUDNN_TEST_BOOL", true));
  ::setenv("UCUDNN_TEST_BOOL", "maybe", 1);
  EXPECT_THROW(env_bool("UCUDNN_TEST_BOOL", true), Error);
  ::unsetenv("UCUDNN_TEST_BOOL");
}

TEST(MathTest, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(std::int64_t{1}, std::int64_t{256}), 1);
  EXPECT_EQ(round_up(10, 8), 16);
  EXPECT_EQ(round_up(16, 8), 16);
}

TEST(MathTest, PowersOfTwo) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(31), 32u);
  EXPECT_EQ(next_pow2(33), 64u);
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(255), 7);
  EXPECT_EQ(ilog2(256), 8);
}

TEST(AlignedBufferTest, AlignmentAndZeroing) {
  AlignedBuffer<float> buffer(1000, /*zeroed=*/true);
  EXPECT_EQ(buffer.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data()) % kBufferAlignment,
            0u);
  for (std::size_t i = 0; i < buffer.size(); ++i) EXPECT_EQ(buffer[i], 0.0f);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer<int> a(16, true);
  a[3] = 99;
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.size(), 16u);
  EXPECT_EQ(b[3], 99);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): checking state
  AlignedBuffer<int> c;
  c = std::move(b);
  EXPECT_EQ(c[3], 99);
}

TEST(AlignedBufferTest, EmptyBufferIsSafe) {
  AlignedBuffer<double> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.bytes(), 0u);
}

TEST(AlignedBufferTest, BytesReportsContentSize) {
  AlignedBuffer<float> floats(17);
  EXPECT_EQ(floats.bytes(), 17 * sizeof(float));
  AlignedBuffer<char> chars(100);
  EXPECT_EQ(chars.bytes(), 100u);
}

TEST(AlignedBufferTest, ZeroingCoversOddCountsExactly) {
  // 1001 floats: the memset fast path must zero the full content (and a
  // partially-poisoned allocation must not leak through).
  AlignedBuffer<std::uint8_t> probe(1001 * sizeof(float), true);
  for (std::size_t i = 0; i < probe.size(); ++i) EXPECT_EQ(probe[i], 0u);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::int64_t begin, std::int64_t end,
                              std::size_t) {
    for (std::int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::int64_t begin, std::int64_t,
                                    std::size_t) {
                                   if (begin >= 0) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, EmptyAndSmallRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> sum{0};
  pool.parallel_for(1, [&](std::int64_t begin, std::int64_t end, std::size_t) {
    sum += static_cast<int>(end - begin);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  std::atomic<std::int64_t> total{0};
  ThreadPool::global().parallel_for(8, [&](std::int64_t b, std::int64_t e,
                                           std::size_t) {
    for (std::int64_t i = b; i < e; ++i) {
      ThreadPool::global().parallel_for(
          16, [&](std::int64_t bb, std::int64_t ee, std::size_t) {
            total += ee - bb;
          });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, ParallelForEachHelper) {
  std::vector<std::atomic<int>> hits(257);
  ThreadPool::global().parallel_for(
      257, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForStateLifetimeStress) {
  // Regression (TSan target): the completion notification used to decrement
  // `remaining` before locking `done_mutex`; a spuriously woken waiter could
  // observe zero, return, and destroy the stack-local State while the last
  // worker was still about to lock it. Churn through many short parallel_for
  // calls — each constructs and destroys a State — from several caller
  // threads so the destroy/notify window is hit as often as possible.
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  constexpr int kCallers = 4;
  constexpr int kIterations = 500;
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int iter = 0; iter < kIterations; ++iter) {
        pool.parallel_for(
            16,
            [&](std::int64_t begin, std::int64_t end, std::size_t) {
              total.fetch_add(end - begin);
            },
            /*min_chunk=*/1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), std::int64_t{kCallers} * kIterations * 16);
}

TEST(ThreadPoolTest, MinChunkLimitsSplitGranularity) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  pool.parallel_for(
      100,
      [&](std::int64_t, std::int64_t, std::size_t) { chunks.fetch_add(1); },
      /*min_chunk=*/100);
  EXPECT_EQ(chunks.load(), 1);
}

TEST(ThreadPoolTest, CallerThreadExecutesChunks) {
  // Regression: the caller used to block idle on the completion condvar
  // while workers ran every chunk. Park all four workers on a gate first —
  // with no worker free, only caller participation can finish the loop.
  ThreadPool pool(4);
  Mutex gate_mutex{"test.gate"};
  CondVar gate_cv;
  bool gate_open = false;
  for (int i = 0; i < 4; ++i) {
    pool.submit([&] {
      MutexLock lock(gate_mutex);
      while (!gate_open) gate_cv.wait(gate_mutex);
    });
  }

  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> chunk_tids(4);
  pool.parallel_for(
      100,
      [&](std::int64_t, std::int64_t, std::size_t chunk) {
        chunk_tids[chunk] = std::this_thread::get_id();
      },
      /*min_chunk=*/25);

  {
    MutexLock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();

  EXPECT_TRUE(std::count(chunk_tids.begin(), chunk_tids.end(), caller) > 0);
  // With every worker parked the caller must in fact have run all chunks.
  for (const auto& tid : chunk_tids) EXPECT_EQ(tid, caller);
}

TEST(ThreadPoolTest, ChunksPartitionTheRangeForEveryShape) {
  // For every pool size, grain and count around the grain: the chunks are
  // contiguous, disjoint and cover [0, count); chunk indices are dense and
  // below num_threads(); a count at or below the grain is one inline call
  // with chunk 0 on the caller thread.
  struct Chunk {
    std::int64_t begin;
    std::int64_t end;
    std::size_t index;
    std::thread::id tid;
  };
  const auto caller = std::this_thread::get_id();
  for (const std::size_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (const std::int64_t grain : {1, 64}) {
      for (const std::int64_t count : {std::int64_t{0}, std::int64_t{1},
                                       grain - 1, grain, grain + 1,
                                       std::int64_t{1000003}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " grain=" + std::to_string(grain) +
                     " count=" + std::to_string(count));
        Mutex mutex{"test.chunks"};
        std::vector<Chunk> chunks;
        pool.parallel_for(
            count,
            [&](std::int64_t begin, std::int64_t end, std::size_t index) {
              MutexLock lock(mutex);
              chunks.push_back({begin, end, index, std::this_thread::get_id()});
            },
            grain);

        std::sort(chunks.begin(), chunks.end(),
                  [](const Chunk& a, const Chunk& b) {
                    return a.begin < b.begin;
                  });
        std::int64_t cursor = 0;
        std::vector<std::size_t> indices;
        for (const Chunk& chunk : chunks) {
          EXPECT_EQ(chunk.begin, cursor);
          EXPECT_LT(chunk.begin, chunk.end);
          EXPECT_LT(chunk.index, pool.num_threads());
          cursor = chunk.end;
          indices.push_back(chunk.index);
        }
        EXPECT_EQ(cursor, count);
        std::sort(indices.begin(), indices.end());
        for (std::size_t i = 0; i < indices.size(); ++i) {
          EXPECT_EQ(indices[i], i);
        }

        if (count == 0) {
          EXPECT_TRUE(chunks.empty());
        } else if (count <= grain) {
          ASSERT_EQ(chunks.size(), 1u);
          EXPECT_EQ(chunks[0].index, 0u);
          EXPECT_EQ(chunks[0].tid, caller);
        }
      }
    }
  }
}

// Temporarily sets (or unsets, when value == nullptr) an environment
// variable, restoring the previous state on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(ThreadPoolTest, NumThreadsFromEnvRejectsInvalidValues) {
  const std::size_t fallback = [] {
    ScopedEnv unset("UCUDNN_NUM_THREADS", nullptr);
    return ThreadPool::num_threads_from_env();
  }();
  EXPECT_GE(fallback, 1u);

  // Regression: a negative value cast straight to std::size_t wrapped to
  // ~2^64 and the pool constructor tried to spawn that many workers. All
  // invalid spellings must fall back instead of wrapping or throwing.
  for (const char* bad : {"0", "-1", "-99999999999999999999", "garbage", "",
                          "2x", "  "}) {
    ScopedEnv env("UCUDNN_NUM_THREADS", bad);
    EXPECT_EQ(ThreadPool::num_threads_from_env(), fallback)
        << "UCUDNN_NUM_THREADS=" << bad;
  }

  {
    ScopedEnv env("UCUDNN_NUM_THREADS", "3");
    EXPECT_EQ(ThreadPool::num_threads_from_env(), 3u);
  }
  {
    ScopedEnv env("UCUDNN_NUM_THREADS", "1000000");
    EXPECT_EQ(ThreadPool::num_threads_from_env(),
              static_cast<std::size_t>(ThreadPool::kMaxThreads));
  }
}

}  // namespace
}  // namespace ucudnn
