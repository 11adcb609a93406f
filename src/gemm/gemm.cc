#include "gemm/gemm.h"

#include <algorithm>
#include <cstring>

#include "common/aligned_buffer.h"
#include "common/mathutil.h"
#include "common/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#define UCUDNN_GEMM_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define UCUDNN_GEMM_NEON 1
#include <arm_neon.h>
#endif

namespace ucudnn::gemm {

namespace {

inline float load_a(Trans t, const float* a, std::int64_t lda, std::int64_t i,
                    std::int64_t p) {
  return t == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
}

inline float load_b(Trans t, const float* b, std::int64_t ldb, std::int64_t p,
                    std::int64_t j) {
  return t == Trans::kNo ? b[p * ldb + j] : b[j * ldb + p];
}

// BLIS-style blocking around a register micro-tile of mr x nr elements of C.
// A micro-kernel runs pb rank-1 updates of one tile: a packed A strip holds
// mr rows interleaved per k step (ap[p * mr + i]); a B strip holds nr
// columns per k step, `ldbp` floats apart (bp[p * ldbp + j]). With `load_c`
// false the accumulators start at zero and C is only written.
using MicroKernel = void (*)(std::int64_t pb, const float* ap, const float* bp,
                             std::int64_t ldbp, bool load_c, float* c,
                             std::int64_t ldc);

// The transposing half of packing (untransposed A, transposed B):
// dst[c * ld_dst + r] = scale * src[r * ld_src + c] over rows x cols.
using Transpose = void (*)(const float* src, std::int64_t ld_src,
                           std::int64_t rows, std::int64_t cols, float scale,
                           float* dst, std::int64_t ld_dst);

struct Tile {
  std::int64_t mr, nr;
  MicroKernel kernel;
  Transpose transpose;
};

// Cache blocks, shared by every tile: the packed A panel (kMC x kKC floats,
// 96 KiB) targets L2, the packed B panel streams through in kKC x nr strips
// that fit L1.
constexpr std::int64_t kMaxMR = 8;
constexpr std::int64_t kMaxNR = 32;
constexpr std::int64_t kMC = 96;   // multiple of every mr (6 and 8)
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kNC = 512;  // multiple of every nr (16 and 32)

// Parallel grain: a chunk of the strip split carries at least this many
// FLOPs, so small products stay on one thread and skinny-deep ones spread.
constexpr std::int64_t kChunkFlops = std::int64_t{1} << 20;

template <std::int64_t MR, std::int64_t NR>
void micro_kernel_scalar(std::int64_t pb, const float* ap, const float* bp,
                         std::int64_t ldbp, bool load_c, float* c,
                         std::int64_t ldc) {
  float acc[MR][NR];
  for (std::int64_t i = 0; i < MR; ++i) {
    for (std::int64_t j = 0; j < NR; ++j) {
      acc[i][j] = load_c ? c[i * ldc + j] : 0.0f;
    }
  }
  for (std::int64_t p = 0; p < pb; ++p) {
    const float* a_p = ap + p * MR;
    const float* b_p = bp + p * ldbp;
    for (std::int64_t i = 0; i < MR; ++i) {
      const float av = a_p[i];
      for (std::int64_t j = 0; j < NR; ++j) acc[i][j] += av * b_p[j];
    }
  }
  for (std::int64_t i = 0; i < MR; ++i) {
    for (std::int64_t j = 0; j < NR; ++j) c[i * ldc + j] = acc[i][j];
  }
}

void transpose_scalar(const float* src, std::int64_t ld_src, std::int64_t rows,
                      std::int64_t cols, float scale, float* dst,
                      std::int64_t ld_dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* src_row = src + r * ld_src;
    for (std::int64_t c = 0; c < cols; ++c) {
      dst[c * ld_dst + r] = scale * src_row[c];
    }
  }
}

#if defined(UCUDNN_GEMM_X86)

// 8 x 8 blocks through ymm registers (unpack, shuffle, lane permute); the
// ragged edges go through the scalar loop. Both tiles of x86 pack with it:
// with it, BackwardFilter's GEMMs (transposed B) ran 1.5-1.8x faster than
// with the scalar loop (train_host shapes, 4-vCPU AVX-512 x86 VM).
__attribute__((target("avx2,fma"))) void transpose_avx2(
    const float* src, std::int64_t ld_src, std::int64_t rows,
    std::int64_t cols, float scale, float* dst, std::int64_t ld_dst) {
  const __m256 vscale = _mm256_set1_ps(scale);
  std::int64_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    std::int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      __m256 v[8];
#pragma GCC unroll 8
      for (int q = 0; q < 8; ++q) {
        v[q] = _mm256_mul_ps(vscale,
                             _mm256_loadu_ps(src + (r + q) * ld_src + c));
      }
      // Pairs of rows interleaved, then quads, then the 128-bit halves.
      __m256 t[8], u[8];
#pragma GCC unroll 4
      for (int q = 0; q < 8; q += 2) {
        t[q] = _mm256_unpacklo_ps(v[q], v[q + 1]);
        t[q + 1] = _mm256_unpackhi_ps(v[q], v[q + 1]);
      }
#pragma GCC unroll 2
      for (int q = 0; q < 8; q += 4) {
        u[q] = _mm256_shuffle_ps(t[q], t[q + 2], 0x44);
        u[q + 1] = _mm256_shuffle_ps(t[q], t[q + 2], 0xEE);
        u[q + 2] = _mm256_shuffle_ps(t[q + 1], t[q + 3], 0x44);
        u[q + 3] = _mm256_shuffle_ps(t[q + 1], t[q + 3], 0xEE);
      }
      float* d = dst + c * ld_dst + r;
#pragma GCC unroll 4
      for (int q = 0; q < 4; ++q) {
        _mm256_storeu_ps(d + q * ld_dst,
                         _mm256_permute2f128_ps(u[q], u[q + 4], 0x20));
        _mm256_storeu_ps(d + (q + 4) * ld_dst,
                         _mm256_permute2f128_ps(u[q], u[q + 4], 0x31));
      }
    }
    transpose_scalar(src + r * ld_src + c, ld_src, 8, cols - c, scale,
                     dst + c * ld_dst + r, ld_dst);
  }
  transpose_scalar(src + r * ld_src, ld_src, rows - r, cols, scale, dst + r,
                   ld_dst);
}

// AVX2: 6 rows x 2 ymm columns = 12 accumulators plus two B loads and one A
// broadcast.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    std::int64_t pb, const float* ap, const float* bp, std::int64_t ldbp,
    bool load_c, float* c, std::int64_t ldc) {
  constexpr int kMR = 6;
  __m256 acc[kMR][2];
#pragma GCC unroll 6
  for (int i = 0; i < kMR; ++i) {
    acc[i][0] = load_c ? _mm256_loadu_ps(c + i * ldc) : _mm256_setzero_ps();
    acc[i][1] =
        load_c ? _mm256_loadu_ps(c + i * ldc + 8) : _mm256_setzero_ps();
  }
  for (std::int64_t p = 0; p < pb; ++p) {
    const float* a_p = ap + p * kMR;
    const float* b_p = bp + p * ldbp;
    const __m256 b0 = _mm256_loadu_ps(b_p);
    const __m256 b1 = _mm256_loadu_ps(b_p + 8);
#pragma GCC unroll 6
    for (int i = 0; i < kMR; ++i) {
      const __m256 av = _mm256_broadcast_ss(a_p + i);
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
  }
#pragma GCC unroll 6
  for (int i = 0; i < kMR; ++i) {
    _mm256_storeu_ps(c + i * ldc, acc[i][0]);
    _mm256_storeu_ps(c + i * ldc + 8, acc[i][1]);
  }
}

// AVX-512: 8 rows x 2 zmm columns = 16 accumulators plus two B loads and one
// A broadcast, half of the 32-register file.
__attribute__((target("avx512f"))) void micro_kernel_avx512(
    std::int64_t pb, const float* ap, const float* bp, std::int64_t ldbp,
    bool load_c, float* c, std::int64_t ldc) {
  constexpr int kMR = 8;
  __m512 acc[kMR][2];
#pragma GCC unroll 8
  for (int i = 0; i < kMR; ++i) {
    acc[i][0] = load_c ? _mm512_loadu_ps(c + i * ldc) : _mm512_setzero_ps();
    acc[i][1] =
        load_c ? _mm512_loadu_ps(c + i * ldc + 16) : _mm512_setzero_ps();
  }
  for (std::int64_t p = 0; p < pb; ++p) {
    const float* a_p = ap + p * kMR;
    const float* b_p = bp + p * ldbp;
    const __m512 b0 = _mm512_loadu_ps(b_p);
    const __m512 b1 = _mm512_loadu_ps(b_p + 16);
#pragma GCC unroll 8
    for (int i = 0; i < kMR; ++i) {
      const __m512 av = _mm512_set1_ps(a_p[i]);
      acc[i][0] = _mm512_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_ps(av, b1, acc[i][1]);
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < kMR; ++i) {
    _mm512_storeu_ps(c + i * ldc, acc[i][0]);
    _mm512_storeu_ps(c + i * ldc + 16, acc[i][1]);
  }
}

#elif defined(UCUDNN_GEMM_NEON)

void micro_kernel_neon(std::int64_t pb, const float* ap, const float* bp,
                       std::int64_t ldbp, bool load_c, float* c,
                       std::int64_t ldc) {
  constexpr int kMR = 6;
  float32x4_t acc[kMR][4];
  for (int i = 0; i < kMR; ++i) {
    for (int q = 0; q < 4; ++q) {
      acc[i][q] = load_c ? vld1q_f32(c + i * ldc + 4 * q) : vdupq_n_f32(0.0f);
    }
  }
  for (std::int64_t p = 0; p < pb; ++p) {
    const float* a_p = ap + p * kMR;
    const float* b_p = bp + p * ldbp;
    float32x4_t b[4];
    for (int q = 0; q < 4; ++q) b[q] = vld1q_f32(b_p + 4 * q);
    for (int i = 0; i < kMR; ++i) {
      const float32x4_t av = vdupq_n_f32(a_p[i]);
      for (int q = 0; q < 4; ++q) acc[i][q] = vfmaq_f32(acc[i][q], av, b[q]);
    }
  }
  for (int i = 0; i < kMR; ++i) {
    for (int q = 0; q < 4; ++q) vst1q_f32(c + i * ldc + 4 * q, acc[i][q]);
  }
}

#endif

// One register tile per instruction set; everything else is shared.
Tile tile_for(simd::Isa isa) {
  switch (isa) {
#if defined(UCUDNN_GEMM_X86)
    case simd::Isa::kAvx512:
      return {8, 32, micro_kernel_avx512, transpose_avx2};
    case simd::Isa::kAvx2Fma:
      return {6, 16, micro_kernel_avx2, transpose_avx2};
#elif defined(UCUDNN_GEMM_NEON)
    case simd::Isa::kNeon: return {6, 16, micro_kernel_neon, transpose_scalar};
#endif
    default: return {6, 16, micro_kernel_scalar<6, 16>, transpose_scalar};
  }
}

void scale_rows(float* c, std::int64_t ldc, std::int64_t rows,
                std::int64_t cols, float beta) {
  if (beta == 1.0f) return;
  for (std::int64_t i = 0; i < rows; ++i) {
    float* c_row = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(c_row, c_row + cols, 0.0f);
    } else {
      for (std::int64_t j = 0; j < cols; ++j) c_row[j] *= beta;
    }
  }
}

struct Operands {
  Trans trans_a, trans_b;
  std::int64_t k;
  float alpha;
  const float* a;
  std::int64_t lda;
  const float* b;
  std::int64_t ldb;
  float beta;
  float* c;
  std::int64_t ldc;
};

// Pack panels, one pair per thread, allocated on the thread's first GEMM
// and sized for every tile. They are never zero-filled: each packed element
// a micro-kernel reads is written by the pack first.
struct PackPanels {
  AlignedBuffer<float> a{static_cast<std::size_t>(kMC * kKC)};
  AlignedBuffer<float> b{static_cast<std::size_t>(kKC * kNC)};
};

PackPanels& pack_panels() {
  thread_local PackPanels panels;
  return panels;
}

// Packs alpha * op(A)[i0:i0+ib, p0:p0+pb] into mr-row strips, zero-padding
// the last strip to mr rows.
void pack_a(const Tile& t, const Operands& g, std::int64_t i0, std::int64_t ib,
            std::int64_t p0, std::int64_t pb, float* dst) {
  const std::int64_t mr = t.mr;
  for (std::int64_t is = 0; is * mr < ib; ++is) {
    float* strip = dst + is * pb * mr;
    const std::int64_t r0 = i0 + is * mr;
    const std::int64_t iw = std::min(mr, ib - is * mr);
    if (g.trans_a == Trans::kNo) {
      t.transpose(g.a + r0 * g.lda + p0, g.lda, iw, pb, g.alpha, strip, mr);
    } else {
      for (std::int64_t p = 0; p < pb; ++p) {
        const float* src = g.a + (p0 + p) * g.lda + r0;
        for (std::int64_t i = 0; i < iw; ++i) {
          strip[p * mr + i] = g.alpha * src[i];
        }
      }
    }
    for (std::int64_t p = 0; p < pb && iw < mr; ++p) {
      std::fill(strip + p * mr + iw, strip + (p + 1) * mr, 0.0f);
    }
  }
}

// Packs op(B)[p0:p0+pb, j0:j0+jw] into one nr-column strip, zero-padding
// columns jw..nr.
void pack_b_strip(const Tile& t, const Operands& g, std::int64_t j0,
                  std::int64_t jw, std::int64_t p0, std::int64_t pb,
                  float* dst) {
  const std::int64_t nr = t.nr;
  if (g.trans_b == Trans::kNo) {
    for (std::int64_t p = 0; p < pb; ++p) {
      std::memcpy(dst + p * nr, g.b + (p0 + p) * g.ldb + j0,
                  static_cast<std::size_t>(jw) * sizeof(float));
    }
  } else {
    t.transpose(g.b + j0 * g.ldb + p0, g.ldb, jw, pb, 1.0f, dst, nr);
  }
  for (std::int64_t p = 0; p < pb && jw < nr; ++p) {
    std::fill(dst + p * nr + jw, dst + (p + 1) * nr, 0.0f);
  }
}

// A full strip of untransposed B is already nr contiguous floats per k step,
// so the micro-kernel can read it in place. Its rows sit ldb floats apart,
// and with ldb a power of two (every batched im2col matrix of a power-of-two
// batch) they alias in L1, so each A strip the strip meets re-reads it from
// L2 or beyond. Past kInPlaceStrips A strips one packed copy is cheaper: on
// the train_host shapes (4-vCPU AVX-512 x86 VM), 16 rows of C read in place
// ran 15-20 % faster than packed, 32 rows 30 % slower.
constexpr std::int64_t kInPlaceStrips = 2;

inline bool b_in_place(const Tile& t, const Operands& g, std::int64_t rows,
                       std::int64_t jw) {
  return g.trans_b == Trans::kNo && jw == t.nr &&
         rows <= kInPlaceStrips * t.mr;
}

// Computes C[i0:i1, j0:j1] = alpha * op(A) * op(B) + beta * C over the full k
// range. Each caller (one parallel_for chunk) owns a disjoint C rectangle, so
// ranges never race. alpha is folded into the packed A panel; beta is
// applied to the rectangle once up front, except beta == 0, which starts the
// first k block from zero without reading C.
//
// Every element of C sees the same operations whatever rectangle it falls
// in: beta scale, then one micro-kernel pass per kKC block in k order. Edge
// tiles run the same kernel on a copy of their valid region.
void gemm_block(const Tile& t, const Operands& g, std::int64_t i0,
                std::int64_t i1, std::int64_t j0, std::int64_t j1) {
  const std::int64_t mr = t.mr, nr = t.nr;
  if (g.beta != 0.0f) {
    scale_rows(g.c + i0 * g.ldc + j0, g.ldc, i1 - i0, j1 - j0, g.beta);
  }
  PackPanels& panels = pack_panels();
  alignas(64) float edge[kMaxMR * kMaxNR];

  for (std::int64_t jj0 = j0; jj0 < j1; jj0 += kNC) {
    const std::int64_t jb = std::min(kNC, j1 - jj0);
    const std::int64_t j_strips = ceil_div(jb, nr);
    for (std::int64_t p0 = 0; p0 < g.k; p0 += kKC) {
      const std::int64_t pb = std::min(kKC, g.k - p0);
      const bool load_c = g.beta != 0.0f || p0 > 0;
      for (std::int64_t js = 0; js < j_strips; ++js) {
        const std::int64_t jw = std::min(nr, jb - js * nr);
        if (!b_in_place(t, g, i1 - i0, jw)) {
          pack_b_strip(t, g, jj0 + js * nr, jw, p0, pb,
                       panels.b.data() + js * pb * nr);
        }
      }
      for (std::int64_t ii0 = i0; ii0 < i1; ii0 += kMC) {
        const std::int64_t ib = std::min(kMC, i1 - ii0);
        const std::int64_t i_strips = ceil_div(ib, mr);
        pack_a(t, g, ii0, ib, p0, pb, panels.a.data());
        for (std::int64_t js = 0; js < j_strips; ++js) {
          const std::int64_t jw = std::min(nr, jb - js * nr);
          const bool in_place = b_in_place(t, g, i1 - i0, jw);
          const float* bs = in_place ? g.b + p0 * g.ldb + jj0 + js * nr
                                     : panels.b.data() + js * pb * nr;
          const std::int64_t ldbs = in_place ? g.ldb : nr;
          for (std::int64_t is = 0; is < i_strips; ++is) {
            const float* as = panels.a.data() + is * pb * mr;
            const std::int64_t iw = std::min(mr, ib - is * mr);
            float* c_tile = g.c + (ii0 + is * mr) * g.ldc + jj0 + js * nr;
            if (iw == mr && jw == nr) {
              t.kernel(pb, as, bs, ldbs, load_c, c_tile, g.ldc);
              continue;
            }
            std::fill(edge, edge + mr * nr, 0.0f);
            for (std::int64_t i = 0; i < iw && load_c; ++i) {
              std::copy(c_tile + i * g.ldc, c_tile + i * g.ldc + jw,
                        edge + i * nr);
            }
            t.kernel(pb, as, bs, ldbs, true, edge, nr);
            for (std::int64_t i = 0; i < iw; ++i) {
              std::copy(edge + i * nr, edge + i * nr + jw, c_tile + i * g.ldc);
            }
          }
        }
      }
    }
  }
}

}  // namespace

void sgemm_naive(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, std::int64_t lda,
                 const float* b, std::int64_t ldb, float beta, float* c,
                 std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(load_a(trans_a, a, lda, i, p)) *
               load_b(trans_b, b, ldb, p, j);
      }
      c[i * ldc + j] = static_cast<float>(alpha * acc) +
                       (beta == 0.0f ? 0.0f : beta * c[i * ldc + j]);
    }
  }
}

namespace internal {

void sgemm_isa(simd::Isa isa, Trans trans_a, Trans trans_b, std::int64_t m,
               std::int64_t n, std::int64_t k, float alpha, const float* a,
               std::int64_t lda, const float* b, std::int64_t ldb, float beta,
               float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == 0.0f) {
    // Nothing to accumulate: C = beta * C without touching A or B.
    scale_rows(c, ldc, m, n, beta);
    return;
  }
  const Tile t = tile_for(isa);
  const Operands g{trans_a, trans_b, k, alpha, a, lda, b, ldb, beta, c, ldc};
  // Split the dimension with more tile strips into chunks of whole strips;
  // each chunk computes a disjoint rectangle (packing the shared matrix
  // redundantly). Strips, not elements, keep every chunk's tiles full.
  const std::int64_t row_strips = ceil_div(m, t.mr);
  const std::int64_t col_strips = ceil_div(n, t.nr);
  const bool split_cols = col_strips >= row_strips;
  const std::int64_t strips = split_cols ? col_strips : row_strips;
  const std::int64_t strip_flops = 2 * k * (split_cols ? m * t.nr : t.mr * n);
  ThreadPool::global().parallel_for(
      strips,
      [&](std::int64_t s0, std::int64_t s1, std::size_t) {
        if (split_cols) {
          gemm_block(t, g, 0, m, s0 * t.nr, std::min(n, s1 * t.nr));
        } else {
          gemm_block(t, g, s0 * t.mr, std::min(m, s1 * t.mr), 0, n);
        }
      },
      /*min_chunk=*/ceil_div(kChunkFlops, strip_flops));
}

}  // namespace internal

void sgemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc) {
  internal::sgemm_isa(simd::active(), trans_a, trans_b, m, n, k, alpha, a, lda,
                      b, ldb, beta, c, ldc);
}

void sgemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, const float* b,
           float beta, float* c) {
  const std::int64_t lda = trans_a == Trans::kNo ? k : m;
  const std::int64_t ldb = trans_b == Trans::kNo ? n : k;
  sgemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, n);
}

}  // namespace ucudnn::gemm
