#include "fft/fft.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numbers>
#include <vector>

#include "common/mathutil.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace ucudnn::fft {

namespace {

constexpr double kPi = std::numbers::pi;

inline float* as_floats(Complex* p) { return reinterpret_cast<float*>(p); }
inline const float* as_floats(const Complex* p) {
  return reinterpret_cast<const float*>(p);
}

// An immutable value built on first use and published with one
// compare-and-swap. A reader pays one acquire load: no lock and no
// reference count, so lookups from many threads never serialize (a mutex
// per transform made two kernel threads slower than one). Racing builders
// each build; the first to publish wins and the others free their copy.
// Published values live until the process exits.
template <typename T>
class Published {
 public:
  template <typename Build>
  const T& get(Build&& build) {
    if (const T* value = value_.load(std::memory_order_acquire)) {
      return *value;
    }
    std::unique_ptr<const T> fresh(new const T(build()));
    const T* expected = nullptr;
    if (value_.compare_exchange_strong(expected, fresh.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return *fresh.release();
    }
    return *expected;
  }

 private:
  std::atomic<const T*> value_{nullptr};
};

// What a radix-2 transform of one power-of-two length reads besides its
// data: the forward twiddles of every stage, concatenated (stage `len`
// contributes len/2 entries w^j = exp(-2*pi*i*j/len) starting at offset
// len/2 - 1, so the butterfly loop reads them contiguously), and the index
// pairs the bit-reversal permutation swaps.
struct Radix2Table {
  std::vector<Complex> twiddles;
  std::vector<std::uint32_t> swaps;  // (i, j) pairs, i < j
};

Radix2Table make_radix2_table(std::size_t n) {
  Radix2Table t;
  t.twiddles.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * kPi / static_cast<double>(len);
    for (std::size_t j = 0; j < len / 2; ++j) {
      const double a = angle * static_cast<double>(j);
      t.twiddles.emplace_back(static_cast<float>(std::cos(a)),
                              static_cast<float>(std::sin(a)));
    }
  }
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      t.swaps.push_back(static_cast<std::uint32_t>(i));
      t.swaps.push_back(static_cast<std::uint32_t>(j));
    }
  }
  return t;
}

// One published table per log2 length.
const Radix2Table& radix2_table(std::size_t n) {
  static Published<Radix2Table> tables[64];
  return tables[ilog2(n)].get([n] { return make_radix2_table(n); });
}

// Radix-2 transform with its table already resolved, so a 2-D transform
// looks its tables up once instead of once per row or column.
void fft_pow2_with(Complex* data, std::size_t n, const Radix2Table& table,
                   bool inverse) {
  if (n == 1) return;
  const std::uint32_t* swaps = table.swaps.data();
  for (std::size_t k = 0; k < table.swaps.size(); k += 2) {
    std::swap(data[swaps[k]], data[swaps[k + 1]]);
  }
  simd::fft_stages(as_floats(data), static_cast<std::int64_t>(n),
                   as_floats(table.twiddles.data()), inverse);
  if (inverse) {
    const float scale = 1.0f / static_cast<float>(n);
    float* d = as_floats(data);
    for (std::size_t i = 0; i < 2 * n; ++i) d[i] *= scale;
  }
}

// Bluestein chirp-z transform: expresses an arbitrary-length DFT as a
// power-of-two circular convolution. The chirp and the FFT of the b sequence
// depend only on (n, direction), so they are computed once per key.
struct BluesteinPlan {
  std::size_t key = 0;  // 2n + inverse
  std::size_t m = 0;
  const Radix2Table* table = nullptr;  // radix2_table(m)
  std::vector<Complex> chirp;      // n entries
  std::vector<Complex> b_fft;      // m entries: forward FFT of the b sequence
};

// Plans form an append-only list: each node publishes its successor the same
// way the twiddle tables are published, so a lookup takes no lock either.
struct BluesteinNode {
  BluesteinPlan plan;
  mutable Published<BluesteinNode> next;
};

std::size_t bluestein_length(std::size_t n) { return next_pow2(2 * n + 1); }

BluesteinPlan make_bluestein_plan(std::size_t n, bool inverse) {
  BluesteinPlan plan;
  plan.key = 2 * n + (inverse ? 1 : 0);
  plan.m = bluestein_length(n);
  plan.table = &radix2_table(plan.m);
  const double sign = inverse ? 1.0 : -1.0;
  plan.chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n keeps the angle argument small for large k.
    const std::size_t k2 = (static_cast<unsigned long long>(k) * k) % (2 * n);
    const double angle = sign * kPi * static_cast<double>(k2) / n;
    plan.chirp[k] = Complex(static_cast<float>(std::cos(angle)),
                            static_cast<float>(std::sin(angle)));
  }
  plan.b_fft.assign(plan.m, Complex(0, 0));
  plan.b_fft[0] = std::conj(plan.chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    plan.b_fft[k] = plan.b_fft[plan.m - k] = std::conj(plan.chirp[k]);
  }
  fft_pow2_with(plan.b_fft.data(), plan.m, *plan.table, false);
  return plan;
}

const BluesteinPlan& bluestein_plan(std::size_t n, bool inverse) {
  static Published<BluesteinNode> head;
  const std::size_t key = 2 * n + (inverse ? 1 : 0);
  Published<BluesteinNode>* slot = &head;
  for (;;) {
    const BluesteinNode& node = slot->get(
        [&] { return BluesteinNode{make_bluestein_plan(n, inverse), {}}; });
    if (node.plan.key == key) return node.plan;
    slot = &node.next;
  }
}

void fft_bluestein(Complex* data, std::size_t n, bool inverse,
                   Complex* scratch) {
  const BluesteinPlan& plan = bluestein_plan(n, inverse);
  const std::size_t m = plan.m;
  const Complex* chirp = plan.chirp.data();

  // scratch holds the chirped input `a` and the product `prod`, m each.
  Complex* a = scratch;
  Complex* prod = scratch + m;
  for (std::size_t k = 0; k < n; ++k) {
    const float dr = data[k].real(), di = data[k].imag();
    const float cr = chirp[k].real(), ci = chirp[k].imag();
    a[k] = Complex(dr * cr - di * ci, dr * ci + di * cr);
  }
  std::fill(a + n, a + m, Complex(0, 0));
  fft_pow2_with(a, m, *plan.table, false);

  std::fill(prod, prod + m, Complex(0, 0));
  simd::cmul_acc(as_floats(prod), as_floats(a), as_floats(plan.b_fft.data()),
                 static_cast<std::int64_t>(m));
  fft_pow2_with(prod, m, *plan.table, true);

  const float scale = inverse ? 1.0f / static_cast<float>(n) : 1.0f;
  for (std::size_t k = 0; k < n; ++k) {
    const float pr = prod[k].real(), pi = prod[k].imag();
    const float cr = chirp[k].real(), ci = chirp[k].imag();
    data[k] = Complex(scale * (pr * cr - pi * ci),
                      scale * (pr * ci + pi * cr));
  }
}

// Runs body(i) for the `count` independent 1-D transforms of one pass of a
// 2-D transform. A plane of at least 16384 cells (and 4 rows) shares the
// pass with idle pool workers in chunks of about 4096 cells; a smaller one
// runs it inline. Nested under an outer parallel_for (one plane per chunk),
// the pass takes no scratch, so any worker may run any line.
template <typename Body>
void each_line(bool parallel, std::size_t count, std::size_t length,
               const Body& body) {
  if (!parallel) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(count),
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t i = begin; i < end; ++i) {
          body(static_cast<std::size_t>(i));
        }
      },
      std::max<std::int64_t>(1, 4096 / static_cast<std::int64_t>(length)));
}

bool parallel_plane(std::size_t fh, std::size_t fw) {
  return fh >= 4 && fh * fw >= 16384;
}

void check_plane(std::size_t fh, std::size_t fw, std::size_t rows) {
  if (!is_pow2(fh) || !is_pow2(fw) || rows > fh) {
    throw Error(Status::kBadParam,
                "real 2-D FFT needs power-of-two edges and rows <= fh");
  }
}

}  // namespace

void fft_pow2(Complex* data, std::size_t n, bool inverse) {
  if (!is_pow2(n)) {
    throw Error(Status::kBadParam, "fft_pow2 requires a power-of-two length");
  }
  fft_pow2_with(data, n, radix2_table(n), inverse);
}

std::size_t fft_scratch_cells(std::size_t n) {
  return is_pow2(n) ? 0 : 2 * bluestein_length(n);
}

void fft(Complex* data, std::size_t n, bool inverse, Complex* scratch) {
  if (n < 1) throw Error(Status::kBadParam, "fft length must be >= 1");
  if (is_pow2(n)) {
    fft_pow2_with(data, n, radix2_table(n), inverse);
    return;
  }
  if (scratch == nullptr) {
    throw Error(Status::kBadParam,
                "fft of a non-power-of-two length needs scratch");
  }
  fft_bluestein(data, n, inverse, scratch);
}

void rfft2d(Complex* plane, std::size_t rows, std::size_t fh, std::size_t fw,
            Complex* half) {
  check_plane(fh, fw, rows);
  const Radix2Table& row_table = radix2_table(fw);
  const Radix2Table& col_table = radix2_table(fh);
  const bool parallel = parallel_plane(fh, fw);
  // Rows past `rows` transform to zero, so only the data rows run.
  each_line(parallel, rows, fw, [&](std::size_t r) {
    fft_pow2_with(plane + r * fw, fw, row_table, false);
  });
  // Columns past fw / 2 mirror the ones kept, so only those run. Each column
  // gathers its data rows, zero-fills the rest and transforms in place.
  each_line(parallel, fw / 2 + 1, fh, [&](std::size_t v) {
    Complex* col = half + v * fh;
    for (std::size_t u = 0; u < rows; ++u) col[u] = plane[u * fw + v];
    std::fill(col + rows, col + fh, Complex(0, 0));
    fft_pow2_with(col, fh, col_table, false);
  });
}

void irfft2d(Complex* half, std::size_t fh, std::size_t fw, std::size_t rows,
             Complex* out) {
  check_plane(fh, fw, rows);
  const Radix2Table& row_table = radix2_table(fw);
  const Radix2Table& col_table = radix2_table(fh);
  const bool parallel = parallel_plane(fh, fw);
  const std::size_t hw = fw / 2 + 1;
  // Inverse column transforms of the half spectrum. Each row of the result
  // is again Hermitian along its length, Y[i][fw - v] = conj(Y[i][v]).
  each_line(parallel, hw, fh, [&](std::size_t v) {
    fft_pow2_with(half + v * fh, fh, col_table, true);
  });
  // Only the rows the caller reads are completed and transformed, two to a
  // transform: rows a and b of the result are real, so the inverse of
  // Y[a] + i Y[b] holds row a in its real parts and row b in its imaginary
  // parts.
  each_line(parallel, (rows + 1) / 2, fw, [&](std::size_t pair) {
    const std::size_t a = 2 * pair;
    Complex* row = out + a * fw;
    if (a + 1 == rows) {
      for (std::size_t v = 0; v < hw; ++v) row[v] = half[v * fh + a];
      for (std::size_t v = hw; v < fw; ++v) row[v] = std::conj(row[fw - v]);
      fft_pow2_with(row, fw, row_table, true);
      return;
    }
    for (std::size_t v = 0; v < hw; ++v) {
      const Complex ya = half[v * fh + a], yb = half[v * fh + a + 1];
      row[v] = Complex(ya.real() - yb.imag(), ya.imag() + yb.real());
    }
    for (std::size_t v = hw; v < fw; ++v) {
      // Y[a][v] = conj(Y[a][fw - v]), and the same for row b.
      const Complex ya = half[(fw - v) * fh + a];
      const Complex yb = half[(fw - v) * fh + a + 1];
      row[v] = Complex(ya.real() + yb.imag(), yb.real() - ya.imag());
    }
    fft_pow2_with(row, fw, row_table, true);
    Complex* next = row + fw;
    for (std::size_t j = 0; j < fw; ++j) next[j] = Complex(row[j].imag(), 0);
  });
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
