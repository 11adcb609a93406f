// Unit and property tests for the SGEMM substrate: the blocked parallel
// implementation must match the naive reference for all transpose modes,
// alpha/beta combinations, and a sweep of shapes (including non-multiples of
// the blocking factors), on every register tile this CPU can run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "common/simd.h"
#include "gemm/gemm.h"
#include "tensor/tensor.h"

namespace ucudnn {
namespace {

using gemm::Trans;

std::vector<float> random_vec(std::int64_t count, std::uint64_t seed) {
  std::vector<float> v(static_cast<std::size_t>(count));
  fill_random(v.data(), count, seed);
  return v;
}

// Every instruction set whose register tile this CPU can run: scalar always,
// plus AVX2 and AVX-512 (or NEON). Covers the narrower tiles on a host whose
// sgemm picks the widest, whatever UCUDNN_SIMD says.
std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas;
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2Fma,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (simd::cpu_supports(isa)) isas.push_back(isa);
  }
  return isas;
}

struct GemmCase {
  std::int64_t m, n, k;
  Trans ta, tb;
  float alpha, beta;
};

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesNaiveReference) {
  const GemmCase p = GetParam();
  const auto a = random_vec(p.m * p.k, 1);
  const auto b = random_vec(p.k * p.n, 2);
  const auto c0 = random_vec(p.m * p.n, 3);
  auto c_ref = c0;

  const std::int64_t lda = p.ta == Trans::kNo ? p.k : p.m;
  const std::int64_t ldb = p.tb == Trans::kNo ? p.n : p.k;
  gemm::sgemm_naive(p.ta, p.tb, p.m, p.n, p.k, p.alpha, a.data(), lda, b.data(),
                    ldb, p.beta, c_ref.data(), p.n);
  auto c_fast = c0;
  gemm::sgemm(p.ta, p.tb, p.m, p.n, p.k, p.alpha, a.data(), lda, b.data(), ldb,
              p.beta, c_fast.data(), p.n);

  const double err = max_rel_diff(c_fast.data(), c_ref.data(), p.m * p.n);
  EXPECT_LT(err, 2e-4) << "m=" << p.m << " n=" << p.n << " k=" << p.k;

  for (const simd::Isa isa : supported_isas()) {
    auto c_tile = c0;
    gemm::internal::sgemm_isa(isa, p.ta, p.tb, p.m, p.n, p.k, p.alpha,
                              a.data(), lda, b.data(), ldb, p.beta,
                              c_tile.data(), p.n);
    EXPECT_LT(max_rel_diff(c_tile.data(), c_ref.data(), p.m * p.n), 2e-4)
        << simd::isa_name(isa) << " m=" << p.m << " n=" << p.n
        << " k=" << p.k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndModes, GemmParamTest,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{5, 7, 3, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{64, 64, 64, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{65, 63, 67, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{128, 200, 300, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{33, 17, 257, Trans::kYes, Trans::kNo, 1.0f, 0.0f},
        GemmCase{33, 17, 257, Trans::kNo, Trans::kYes, 1.0f, 0.0f},
        GemmCase{33, 17, 257, Trans::kYes, Trans::kYes, 1.0f, 0.0f},
        GemmCase{50, 50, 50, Trans::kNo, Trans::kNo, 2.5f, 0.0f},
        GemmCase{50, 50, 50, Trans::kNo, Trans::kNo, 1.0f, 1.0f},
        GemmCase{50, 50, 50, Trans::kNo, Trans::kNo, -0.5f, 0.75f},
        GemmCase{50, 50, 50, Trans::kYes, Trans::kYes, 2.0f, -1.0f},
        GemmCase{300, 65, 5, Trans::kNo, Trans::kNo, 1.0f, 0.5f},
        GemmCase{1, 512, 512, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{512, 1, 512, Trans::kYes, Trans::kNo, 1.0f, 0.0f}));

// Pinned parity tolerance: sgemm_naive accumulates in double while the
// blocked SIMD path accumulates in float, so results differ by rounding —
// bounded well below 2e-4 relative for the k ranges exercised here.
constexpr double kParityTol = 2e-4;

TEST(GemmTest, ParityAtBlockAndChunkEdges) {
  // Shapes straddling the register tiles (6x16 and 8x32), the cache blocks
  // (MC=96 / KC=256 / NC=512), and the old parallel-split min_chunk edges
  // (64 columns, 16 rows) — each +/-1 so both the full-tile fast path and
  // the edge-tile path run — plus a skinny-deep product (16x75x4097, the
  // batched BackwardFilter shape) whose strip split spreads over threads.
  // Every shape runs on every register tile the CPU supports.
  const std::int64_t shapes[][3] = {
      {6, 16, 1},   {7, 17, 2},    {5, 15, 255},  {6, 16, 257},
      {95, 63, 33}, {97, 65, 255}, {64, 513, 40}, {17, 511, 7},
      {129, 16, 96}, {7, 31, 3},   {8, 32, 64},   {9, 33, 257},
      {16, 75, 4097}};
  const float betas[] = {0.0f, 1.0f, 0.5f};
  for (const auto& shape : shapes) {
    const std::int64_t m = shape[0], n = shape[1], k = shape[2];
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        for (const float beta : betas) {
          // Padded leading dimensions: every matrix is a view inside a
          // wider buffer, so stride handling is exercised everywhere.
          const std::int64_t lda = (ta == Trans::kNo ? k : m) + 3;
          const std::int64_t ldb = (tb == Trans::kNo ? n : k) + 5;
          const std::int64_t ldc = n + 7;
          const auto a = random_vec(m * k + lda * std::max(m, k), 21);
          const auto b = random_vec(k * n + ldb * std::max(k, n), 22);
          const auto c0 = random_vec(m * ldc, 23);
          auto c_ref = c0;
          gemm::sgemm_naive(ta, tb, m, n, k, 1.25f, a.data(), lda, b.data(),
                            ldb, beta, c_ref.data(), ldc);
          for (const simd::Isa isa : supported_isas()) {
            auto c_fast = c0;
            gemm::internal::sgemm_isa(isa, ta, tb, m, n, k, 1.25f, a.data(),
                                      lda, b.data(), ldb, beta, c_fast.data(),
                                      ldc);
            double err = 0;
            for (std::int64_t i = 0; i < m; ++i) {
              err = std::max(err, max_rel_diff(c_fast.data() + i * ldc,
                                               c_ref.data() + i * ldc, n));
            }
            EXPECT_LT(err, kParityTol)
                << simd::isa_name(isa) << " m=" << m << " n=" << n
                << " k=" << k << " ta=" << (ta == Trans::kYes)
                << " tb=" << (tb == Trans::kYes) << " beta=" << beta;
          }
        }
      }
    }
  }
}

TEST(GemmTest, SlicesAtStripMultiplesAreBitwiseEqual) {
  // Partition independence: C computed whole equals C computed as row and
  // column slices cut at multiples of 24 rows / 96 columns (multiples of
  // every tile's strip), bit for bit. The parallel strip split relies on it,
  // so results do not depend on the thread count.
  const std::int64_t m = 61, n = 301, k = 517;
  const std::int64_t row_cuts[] = {0, 24, 48, m};
  const std::int64_t col_cuts[] = {0, 96, 288, n};
  for (const simd::Isa isa : supported_isas()) {
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        for (const float beta : {0.0f, 1.0f, 0.5f}) {
          const std::int64_t lda = ta == Trans::kNo ? k : m;
          const std::int64_t ldb = tb == Trans::kNo ? n : k;
          const auto a = random_vec(m * k, 41);
          const auto b = random_vec(k * n, 42);
          const auto c0 = random_vec(m * n, 43);
          auto whole = c0;
          gemm::internal::sgemm_isa(isa, ta, tb, m, n, k, 0.75f, a.data(), lda,
                                    b.data(), ldb, beta, whole.data(), n);
          auto sliced = c0;
          for (int ri = 0; ri + 1 < 4; ++ri) {
            for (int ci = 0; ci + 1 < 4; ++ci) {
              const std::int64_t r0 = row_cuts[ri], c_0 = col_cuts[ci];
              const float* a_s = a.data() + (ta == Trans::kNo ? r0 * lda : r0);
              const float* b_s = b.data() + (tb == Trans::kNo ? c_0 : c_0 * ldb);
              gemm::internal::sgemm_isa(
                  isa, ta, tb, row_cuts[ri + 1] - r0, col_cuts[ci + 1] - c_0,
                  k, 0.75f, a_s, lda, b_s, ldb, beta,
                  sliced.data() + r0 * n + c_0, n);
            }
          }
          std::int64_t differing = 0;
          for (std::size_t i = 0; i < whole.size(); ++i) {
            differing += whole[i] != sliced[i];
          }
          EXPECT_EQ(differing, 0)
              << simd::isa_name(isa) << " ta=" << (ta == Trans::kYes)
              << " tb=" << (tb == Trans::kYes) << " beta=" << beta;
        }
      }
    }
  }
}

TEST(GemmTest, AlphaZeroIsExactBetaScale) {
  // alpha == 0 must take the beta-scale-only early-out: A and B are never
  // read (they hold NaNs here) and C is scaled exactly, bit-for-bit equal
  // to beta * c — no packed-loop rounding.
  const std::int64_t m = 33, n = 47, k = 129;
  const std::vector<float> a(static_cast<std::size_t>(m * k),
                             std::numeric_limits<float>::quiet_NaN());
  const std::vector<float> b(static_cast<std::size_t>(k * n),
                             std::numeric_limits<float>::quiet_NaN());
  const auto c0 = random_vec(m * n, 31);

  auto c = c0;
  gemm::sgemm(Trans::kNo, Trans::kNo, m, n, k, 0.0f, a.data(), b.data(), 0.5f,
              c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 0.5f * c0[i]);

  c = c0;
  gemm::sgemm(Trans::kNo, Trans::kNo, m, n, k, 0.0f, a.data(), b.data(), 1.0f,
              c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], c0[i]);

  c = c0;
  gemm::sgemm(Trans::kNo, Trans::kNo, m, n, k, 0.0f, a.data(), b.data(), 0.0f,
              c.data());
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

TEST(GemmTest, BetaZeroOverwritesNaNs) {
  // beta == 0 must not propagate existing NaN/garbage in C.
  const auto a = random_vec(4 * 4, 1);
  const auto b = random_vec(4 * 4, 2);
  std::vector<float> c(16, std::numeric_limits<float>::quiet_NaN());
  gemm::sgemm(Trans::kNo, Trans::kNo, 4, 4, 4, 1.0f, a.data(), b.data(), 0.0f,
              c.data());
  for (float v : c) EXPECT_FALSE(std::isnan(v));
}

TEST(GemmTest, KZeroScalesCOnly) {
  std::vector<float> c(6, 2.0f);
  gemm::sgemm(Trans::kNo, Trans::kNo, 2, 3, 0, 1.0f, nullptr, 0, nullptr, 0,
              0.5f, c.data(), 3);
  for (float v : c) EXPECT_FLOAT_EQ(v, 1.0f);
  gemm::sgemm(Trans::kNo, Trans::kNo, 2, 3, 0, 1.0f, nullptr, 0, nullptr, 0,
              0.0f, c.data(), 3);
  for (float v : c) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(GemmTest, IdentityMultiplication) {
  const std::int64_t n = 32;
  std::vector<float> eye(static_cast<std::size_t>(n * n), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) eye[static_cast<std::size_t>(i * n + i)] = 1.0f;
  const auto b = random_vec(n * n, 9);
  std::vector<float> c(static_cast<std::size_t>(n * n), 0.0f);
  gemm::sgemm(Trans::kNo, Trans::kNo, n, n, n, 1.0f, eye.data(), b.data(), 0.0f,
              c.data());
  EXPECT_LT(max_abs_diff(c.data(), b.data(), n * n), 1e-6);
}

TEST(GemmTest, StridedLeadingDimensions) {
  // C is a 3x4 view inside a wider 3x10 buffer; columns 4..9 must be intact.
  const auto a = random_vec(3 * 5, 1);
  const auto b = random_vec(5 * 4, 2);
  std::vector<float> c(30, 7.0f);
  std::vector<float> c_ref = c;
  gemm::sgemm(Trans::kNo, Trans::kNo, 3, 4, 5, 1.0f, a.data(), 5, b.data(), 4,
              0.0f, c.data(), 10);
  gemm::sgemm_naive(Trans::kNo, Trans::kNo, 3, 4, 5, 1.0f, a.data(), 5,
                    b.data(), 4, 0.0f, c_ref.data(), 10);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (j < 4) {
        EXPECT_NEAR(c[static_cast<std::size_t>(i * 10 + j)],
                    c_ref[static_cast<std::size_t>(i * 10 + j)], 1e-4);
      } else {
        EXPECT_EQ(c[static_cast<std::size_t>(i * 10 + j)], 7.0f);
      }
    }
  }
}

TEST(GemmTest, AssociativityProperty) {
  // (A*B)*v == A*(B*v) up to float tolerance — exercises accumulation order
  // robustness of the blocked implementation.
  const std::int64_t n = 48;
  const auto a = random_vec(n * n, 4);
  const auto b = random_vec(n * n, 5);
  const auto v = random_vec(n, 6);

  std::vector<float> ab(static_cast<std::size_t>(n * n));
  gemm::sgemm(Trans::kNo, Trans::kNo, n, n, n, 1.0f, a.data(), b.data(), 0.0f,
              ab.data());
  std::vector<float> abv(static_cast<std::size_t>(n));
  gemm::sgemm(Trans::kNo, Trans::kNo, n, 1, n, 1.0f, ab.data(), v.data(), 0.0f,
              abv.data());

  std::vector<float> bv(static_cast<std::size_t>(n));
  gemm::sgemm(Trans::kNo, Trans::kNo, n, 1, n, 1.0f, b.data(), v.data(), 0.0f,
              bv.data());
  std::vector<float> a_bv(static_cast<std::size_t>(n));
  gemm::sgemm(Trans::kNo, Trans::kNo, n, 1, n, 1.0f, a.data(), bv.data(), 0.0f,
              a_bv.data());

  EXPECT_LT(max_rel_diff(abv.data(), a_bv.data(), n), 1e-3);
}

}  // namespace
}  // namespace ucudnn
