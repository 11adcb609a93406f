#include "fft/fft.h"

#include <cmath>
#include <cstddef>
#include <memory>
#include <numbers>
#include <unordered_map>
#include <vector>

#include "common/mathutil.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace ucudnn::fft {

namespace {

constexpr double kPi = std::numbers::pi;

inline float* as_floats(Complex* p) { return reinterpret_cast<float*>(p); }
inline const float* as_floats(const Complex* p) {
  return reinterpret_cast<const float*>(p);
}

// Bit-reversal permutation for the iterative radix-2 kernel.
void bit_reverse(Complex* data, std::size_t n) {
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

// Forward twiddles for every stage of a length-n transform, concatenated:
// stage `len` contributes len/2 entries w^j = exp(-2*pi*i*j/len) starting at
// offset len/2 - 1. Contiguous per-stage tables keep the butterfly k-loop
// SIMD-friendly (the old code advanced w by one multiply per butterfly, which
// serializes the loop and accumulates rounding error).
std::shared_ptr<const std::vector<Complex>> twiddle_table(std::size_t n) {
  struct Cache {
    Mutex mutex{"fft.twiddles"};
    std::unordered_map<std::size_t,
                       std::shared_ptr<const std::vector<Complex>>>
        tables GUARDED_BY(mutex);
  };
  static Cache& cache = *new Cache;
  {
    MutexLock lock(cache.mutex);
    auto it = cache.tables.find(n);
    if (it != cache.tables.end()) return it->second;
  }
  auto table = std::make_shared<std::vector<Complex>>();
  table->reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * kPi / static_cast<double>(len);
    for (std::size_t j = 0; j < len / 2; ++j) {
      const double a = angle * static_cast<double>(j);
      table->emplace_back(static_cast<float>(std::cos(a)),
                          static_cast<float>(std::sin(a)));
    }
  }
  MutexLock lock(cache.mutex);
  return cache.tables.try_emplace(n, std::move(table)).first->second;
}

// Bluestein chirp-z transform: expresses an arbitrary-length DFT as a
// power-of-two circular convolution. The chirp and the FFT of the b sequence
// depend only on (n, direction), so they are computed once and cached.
struct BluesteinPlan {
  std::size_t m = 0;
  std::vector<Complex> chirp;  // n entries
  std::vector<Complex> b_fft;  // m entries: forward FFT of the b sequence
};

std::shared_ptr<const BluesteinPlan> bluestein_plan(std::size_t n,
                                                    bool inverse) {
  struct Cache {
    Mutex mutex{"fft.bluestein"};
    std::unordered_map<std::size_t, std::shared_ptr<const BluesteinPlan>>
        plans GUARDED_BY(mutex);
  };
  static Cache& cache = *new Cache;
  const std::size_t key = 2 * n + (inverse ? 1 : 0);
  {
    MutexLock lock(cache.mutex);
    auto it = cache.plans.find(key);
    if (it != cache.plans.end()) return it->second;
  }

  auto plan = std::make_shared<BluesteinPlan>();
  plan->m = next_pow2(2 * n + 1);
  const double sign = inverse ? 1.0 : -1.0;
  plan->chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n keeps the angle argument small for large k.
    const std::size_t k2 = (static_cast<unsigned long long>(k) * k) % (2 * n);
    const double angle = sign * kPi * static_cast<double>(k2) / n;
    plan->chirp[k] = Complex(static_cast<float>(std::cos(angle)),
                             static_cast<float>(std::sin(angle)));
  }
  std::vector<Complex> b(plan->m, Complex(0, 0));
  b[0] = std::conj(plan->chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    b[k] = b[plan->m - k] = std::conj(plan->chirp[k]);
  }
  fft_pow2(b.data(), plan->m, false);
  plan->b_fft = std::move(b);

  MutexLock lock(cache.mutex);
  return cache.plans.try_emplace(key, std::move(plan)).first->second;
}

void fft_bluestein(Complex* data, std::size_t n, bool inverse) {
  const auto plan = bluestein_plan(n, inverse);
  const std::size_t m = plan->m;
  const Complex* chirp = plan->chirp.data();

  std::vector<Complex> a(m, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    const float dr = data[k].real(), di = data[k].imag();
    const float cr = chirp[k].real(), ci = chirp[k].imag();
    a[k] = Complex(dr * cr - di * ci, dr * ci + di * cr);
  }
  fft_pow2(a.data(), m, false);

  std::vector<Complex> prod(m, Complex(0, 0));
  simd::cmul_acc(as_floats(prod.data()), as_floats(a.data()),
                 as_floats(plan->b_fft.data()),
                 static_cast<std::int64_t>(m));
  fft_pow2(prod.data(), m, true);

  const float scale = inverse ? 1.0f / static_cast<float>(n) : 1.0f;
  for (std::size_t k = 0; k < n; ++k) {
    const float pr = prod[k].real(), pi = prod[k].imag();
    const float cr = chirp[k].real(), ci = chirp[k].imag();
    data[k] = Complex(scale * (pr * cr - pi * ci),
                      scale * (pr * ci + pi * cr));
  }
}

}  // namespace

void fft_pow2(Complex* data, std::size_t n, bool inverse) {
  if (!is_pow2(n)) {
    throw Error(Status::kBadParam, "fft_pow2 requires a power-of-two length");
  }
  if (n == 1) return;
  const auto table = twiddle_table(n);
  bit_reverse(data, n);
  simd::fft_stages(as_floats(data), static_cast<std::int64_t>(n),
                   as_floats(table->data()), inverse);
  if (inverse) {
    const float scale = 1.0f / static_cast<float>(n);
    float* d = as_floats(data);
    for (std::size_t i = 0; i < 2 * n; ++i) d[i] *= scale;
  }
}

void fft(Complex* data, std::size_t n, bool inverse) {
  if (n < 1) throw Error(Status::kBadParam, "fft length must be >= 1");
  if (is_pow2(n)) {
    fft_pow2(data, n, inverse);
  } else {
    fft_bluestein(data, n, inverse);
  }
}

void fft2d(Complex* data, std::size_t rows, std::size_t cols, bool inverse) {
  // Parallelize the independent 1-D transforms only when the matrix is large
  // enough to amortize chunk dispatch. A smaller matrix passes its whole
  // count as the chunk, so parallel_for runs the pass inline on the caller.
  // Nested calls (fft2d under an outer parallel_for) share chunks with idle
  // workers instead of serializing.
  const bool parallel = rows >= 4 && rows * cols >= 16384;
  const auto row_count = static_cast<std::int64_t>(rows);
  const auto col_count = static_cast<std::int64_t>(cols);
  const std::int64_t row_chunk =
      parallel ? std::max<std::int64_t>(1, 4096 / col_count) : row_count;
  ThreadPool::global().parallel_for(
      row_count,
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t r = begin; r < end; ++r) {
          fft(data + r * cols, cols, inverse);
        }
      },
      row_chunk);

  // Column pass via transpose: the 1-D kernels then run on contiguous data
  // instead of strided columns copied one at a time. The transpose buffer is
  // per-thread and reused across calls — FFT convolution transforms
  // thousands of identically-sized planes per layer, and a fresh allocation
  // per plane dominated the small transforms. fft() never re-enters fft2d,
  // so the buffer cannot be aliased by the nested row/column loops.
  static thread_local std::vector<Complex> scratch_tls;
  if (scratch_tls.size() < rows * cols) scratch_tls.resize(rows * cols);
  std::vector<Complex>& scratch = scratch_tls;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      scratch[c * rows + r] = data[r * cols + c];
    }
  }
  const std::int64_t col_chunk =
      parallel ? std::max<std::int64_t>(1, 4096 / row_count) : col_count;
  ThreadPool::global().parallel_for(
      col_count,
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t c = begin; c < end; ++c) {
          fft(scratch.data() + c * rows, rows, inverse);
        }
      },
      col_chunk);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      data[r * cols + c] = scratch[c * rows + r];
    }
  }
}

void multiply_accumulate(const Complex* a, const Complex* b, Complex* y,
                         std::size_t n) {
  simd::cmul_acc(as_floats(y), as_floats(a), as_floats(b),
                 static_cast<std::int64_t>(n));
}

void multiply_conj_accumulate(const Complex* a, const Complex* b, Complex* y,
                              std::size_t n) {
  simd::cmul_conj_acc(as_floats(y), as_floats(a), as_floats(b),
                      static_cast<std::int64_t>(n));
}

}  // namespace ucudnn::fft
