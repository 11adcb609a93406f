// Unit and property tests for the FFT substrate: agreement with a direct
// DFT, roundtrip identity, linearity, Parseval, and the convolution theorem
// (the property the FFT convolution kernels rely on).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <random>
#include <thread>
#include <vector>

#include "common/status.h"
#include "fft/fft.h"

namespace ucudnn {
namespace {

using fft::Complex;

std::vector<Complex> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<Complex> v(n);
  for (auto& x : v) x = Complex(dist(rng), dist(rng));
  return v;
}

std::vector<Complex> dft_reference(const std::vector<Complex>& in,
                                   bool inverse) {
  const std::size_t n = in.size();
  std::vector<Complex> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>(k * t) / static_cast<double>(n);
      acc += std::complex<double>(in[t]) *
             std::complex<double>(std::cos(angle), std::sin(angle));
    }
    if (inverse) acc /= static_cast<double>(n);
    out[k] = Complex(static_cast<float>(acc.real()),
                     static_cast<float>(acc.imag()));
  }
  return out;
}

// fft() with the Bluestein scratch a non-power-of-two length needs.
void transform(std::vector<Complex>& v, bool inverse) {
  std::vector<Complex> scratch(fft::fft_scratch_cells(v.size()));
  fft::fft(v.data(), v.size(), inverse, scratch.data());
}

double max_err(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  double e = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    e = std::max(e, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return e;
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesDirectDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 17);
  const auto expected = dft_reference(signal, false);
  transform(signal, false);
  EXPECT_LT(max_err(signal, expected), 1e-3 * std::sqrt(static_cast<double>(n)));
}

TEST_P(FftSizeTest, RoundtripIsIdentity) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 23);
  auto signal = original;
  transform(signal, false);
  transform(signal, true);
  EXPECT_LT(max_err(signal, original), 1e-4 * std::sqrt(static_cast<double>(n)));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwoAndOddSizes, FftSizeTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 3, 5, 7,
                                           12, 15, 31, 100, 243));

TEST(FftTest, Pow2RejectsNonPowerOfTwo) {
  std::vector<Complex> v(3);
  EXPECT_THROW(fft::fft_pow2(v.data(), 3, false), Error);
}

TEST(FftTest, NonPowerOfTwoNeedsScratch) {
  EXPECT_EQ(fft::fft_scratch_cells(64), 0u);
  EXPECT_GT(fft::fft_scratch_cells(100), 200u);
  std::vector<Complex> v(100);
  EXPECT_THROW(fft::fft(v.data(), 100, false), Error);
}

// Tables and Bluestein plans are published on first use without a lock.
// Threads that race to build the same sizes must all read complete tables:
// every thread's transforms agree bitwise. The sizes are ones no other test
// in this binary uses, so the first use happens here.
TEST(FftTest, ConcurrentFirstUseAgreesAcrossThreads) {
  const std::size_t sizes[] = {4096, 8192, 97, 211, 1009};
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<Complex>>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const std::size_t n : sizes) {
        auto v = random_signal(n, 31);
        transform(v, false);
        transform(v, true);
        results[t].push_back(std::move(v));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      EXPECT_EQ(std::memcmp(results[t][i].data(), results[0][i].data(),
                            sizes[i] * sizeof(Complex)),
                0)
          << "size " << sizes[i] << " thread " << t;
    }
  }
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    EXPECT_LT(max_err(results[0][i], random_signal(sizes[i], 31)), 1e-3)
        << "size " << sizes[i];
  }
}

TEST(FftTest, DeltaTransformsToAllOnes) {
  std::vector<Complex> v(8, Complex(0, 0));
  v[0] = Complex(1, 0);
  fft::fft(v.data(), 8, false);
  for (const auto& x : v) {
    EXPECT_NEAR(x.real(), 1.0f, 1e-5);
    EXPECT_NEAR(x.imag(), 0.0f, 1e-5);
  }
}

TEST(FftTest, LinearityProperty) {
  const std::size_t n = 64;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0f * a[i] + 3.0f * b[i];

  auto fa = a, fb = b, fsum = sum;
  fft::fft(fa.data(), n, false);
  fft::fft(fb.data(), n, false);
  fft::fft(fsum.data(), n, false);
  std::vector<Complex> combined(n);
  for (std::size_t i = 0; i < n; ++i) combined[i] = 2.0f * fa[i] + 3.0f * fb[i];
  EXPECT_LT(max_err(fsum, combined), 1e-3);
}

TEST(FftTest, ParsevalEnergyPreserved) {
  const std::size_t n = 128;
  const auto a = random_signal(n, 3);
  double time_energy = 0;
  for (const auto& x : a) time_energy += std::norm(std::complex<double>(x));
  auto fa = a;
  fft::fft(fa.data(), n, false);
  double freq_energy = 0;
  for (const auto& x : fa) freq_energy += std::norm(std::complex<double>(x));
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-2 * time_energy);
}

TEST(FftTest, ConvolutionTheoremCircular) {
  // IFFT(FFT(a) .* FFT(b)) equals circular convolution of a and b.
  const std::size_t n = 32;
  const auto a = random_signal(n, 4);
  const auto b = random_signal(n, 5);

  std::vector<Complex> expected(n, Complex(0, 0));
  for (std::size_t i = 0; i < n; ++i) {
    std::complex<double> acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      acc += std::complex<double>(a[j]) *
             std::complex<double>(b[(i + n - j) % n]);
    }
    expected[i] = Complex(static_cast<float>(acc.real()),
                          static_cast<float>(acc.imag()));
  }

  auto fa = a, fb = b;
  fft::fft(fa.data(), n, false);
  fft::fft(fb.data(), n, false);
  std::vector<Complex> prod(n, Complex(0, 0));
  fft::multiply_accumulate(fa.data(), fb.data(), prod.data(), n);
  fft::fft(prod.data(), n, true);
  EXPECT_LT(max_err(prod, expected), 1e-3);
}

TEST(FftTest, CorrelationTheoremViaConjugate) {
  // IFFT(FFT(a) .* conj(FFT(b))) equals circular cross-correlation: the
  // identity the cross-correlation convolution mode is built on.
  const std::size_t n = 16;
  const auto a = random_signal(n, 6);
  const auto b = random_signal(n, 7);

  std::vector<Complex> expected(n);
  for (std::size_t p = 0; p < n; ++p) {
    std::complex<double> acc(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      acc += std::complex<double>(a[(p + t) % n]) *
             std::conj(std::complex<double>(b[t]));
    }
    expected[p] = Complex(static_cast<float>(acc.real()),
                          static_cast<float>(acc.imag()));
  }

  auto fa = a, fb = b;
  fft::fft(fa.data(), n, false);
  fft::fft(fb.data(), n, false);
  std::vector<Complex> prod(n, Complex(0, 0));
  fft::multiply_conj_accumulate(fa.data(), fb.data(), prod.data(), n);
  fft::fft(prod.data(), n, true);
  EXPECT_LT(max_err(prod, expected), 1e-3);
}

// A random real fh x fw plane whose rows from `rows` on are zero, stored
// as complex values with zero imaginary parts.
std::vector<Complex> real_plane(std::size_t fh, std::size_t fw,
                                std::size_t rows, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<Complex> v(fh * fw, Complex(0, 0));
  for (std::size_t i = 0; i < rows * fw; ++i) v[i] = Complex(dist(rng), 0.0f);
  return v;
}

// Full complex 2-D transform of a row-major plane: every row, then every
// column through a gathered copy.
void full_fft2d(std::vector<Complex>& m, std::size_t fh, std::size_t fw,
                bool inverse) {
  for (std::size_t r = 0; r < fh; ++r) {
    fft::fft_pow2(m.data() + r * fw, fw, inverse);
  }
  std::vector<Complex> col(fh);
  for (std::size_t c = 0; c < fw; ++c) {
    for (std::size_t r = 0; r < fh; ++r) col[r] = m[r * fw + c];
    fft::fft_pow2(col.data(), fh, inverse);
    for (std::size_t r = 0; r < fh; ++r) m[r * fw + c] = col[r];
  }
}

// Forward rfft2d of a full plane (every row may hold data).
std::vector<Complex> rfft2d_of(std::vector<Complex> plane, std::size_t fh,
                               std::size_t fw) {
  std::vector<Complex> half(fh * (fw / 2 + 1));
  fft::rfft2d(plane.data(), fh, fh, fw, half.data());
  return half;
}

TEST(Fft2dTest, MatchesSeparableReference) {
  const std::size_t rows = 8, cols = 4;
  const auto plane = real_plane(rows, cols, rows, 8);
  auto expected = plane;
  // Reference: DFT rows then DFT columns.
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Complex> row(expected.begin() + r * cols,
                             expected.begin() + (r + 1) * cols);
    row = dft_reference(row, false);
    std::copy(row.begin(), row.end(), expected.begin() + r * cols);
  }
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<Complex> col(rows);
    for (std::size_t r = 0; r < rows; ++r) col[r] = expected[r * cols + c];
    col = dft_reference(col, false);
    for (std::size_t r = 0; r < rows; ++r) expected[r * cols + c] = col[r];
  }
  const auto half = rfft2d_of(plane, rows, cols);
  double err = 0;
  for (std::size_t v = 0; v <= cols / 2; ++v) {
    for (std::size_t u = 0; u < rows; ++u) {
      err = std::max(err, static_cast<double>(std::abs(
                              half[v * rows + u] - expected[u * cols + v])));
    }
  }
  EXPECT_LT(err, 1e-3);
}

TEST(Fft2dTest, RoundtripIsIdentity) {
  const std::size_t rows = 16, cols = 32;
  const auto original = real_plane(rows, cols, rows, 9);
  auto half = rfft2d_of(original, rows, cols);
  std::vector<Complex> out(rows * cols);
  fft::irfft2d(half.data(), rows, cols, rows, out.data());
  double err = 0;
  for (std::size_t i = 0; i < rows * cols; ++i) {
    err = std::max(err, static_cast<double>(
                            std::abs(out[i].real() - original[i].real())));
  }
  EXPECT_LT(err, 1e-3);
}

constexpr std::size_t kEdges[] = {1, 2, 4, 8, 16, 32, 64};

// The pruned forward transform skips the zero rows' row transforms and the
// mirrored columns; the cells it keeps must be the full transform's bits.
TEST(RealFft2dTest, PrunedForwardEqualsFullComplexTransformBitwise) {
  for (const std::size_t fh : kEdges) {
    for (const std::size_t fw : kEdges) {
      const std::size_t hw = fw / 2 + 1;
      for (std::size_t rows = 0; rows <= fh; ++rows) {
        const auto plane =
            real_plane(fh, fw, rows, static_cast<unsigned>(fh * 131 + fw + rows));
        auto full = plane;
        full_fft2d(full, fh, fw, false);
        // rfft2d reads only the data rows: poison the rest of its input.
        std::vector<Complex> input(plane.begin(), plane.begin() + rows * fw);
        std::vector<Complex> half(fh * hw, Complex(NAN, NAN));
        fft::rfft2d(input.data(), rows, fh, fw, half.data());
        std::size_t mismatches = 0;
        for (std::size_t v = 0; v < hw; ++v) {
          for (std::size_t u = 0; u < fh; ++u) {
            const Complex a = half[v * fh + u];
            const Complex b = full[u * fw + v];
            if (std::memcmp(&a, &b, sizeof(Complex)) != 0) ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0u)
            << fh << "x" << fw << " plane with " << rows << " data rows";
      }
    }
  }
}

// The windowed inverse of a product of two real spectra (what the
// convolution kernels invert) against the full inverse of the unpacked
// spectrum, for every window height.
TEST(RealFft2dTest, WindowedInverseMatchesFullInverse) {
  for (const std::size_t fh : kEdges) {
    for (const std::size_t fw : kEdges) {
      const std::size_t hw = fw / 2 + 1;
      const auto a = rfft2d_of(real_plane(fh, fw, fh, 3), fh, fw);
      const auto b = rfft2d_of(real_plane(fh, fw, fh, 4), fh, fw);
      std::vector<Complex> product(fh * hw, Complex(0, 0));
      fft::multiply_conj_accumulate(a.data(), b.data(), product.data(),
                                    product.size());

      // Full inverse: unpack by 2-D Hermitian symmetry, then invert.
      std::vector<Complex> full(fh * fw);
      for (std::size_t u = 0; u < fh; ++u) {
        for (std::size_t v = 0; v < fw; ++v) {
          full[u * fw + v] =
              v < hw ? product[v * fh + u]
                     : std::conj(product[(fw - v) * fh + (fh - u) % fh]);
        }
      }
      full_fft2d(full, fh, fw, true);
      double scale = 0;
      for (const Complex& z : full) {
        scale = std::max(scale, static_cast<double>(std::abs(z.real())));
      }

      for (std::size_t rows = 1; rows <= fh; ++rows) {
        auto half = product;
        std::vector<Complex> out(rows * fw);
        fft::irfft2d(half.data(), fh, fw, rows, out.data());
        double err = 0;
        for (std::size_t i = 0; i < rows * fw; ++i) {
          err = std::max(err, static_cast<double>(
                                  std::abs(out[i].real() - full[i].real())));
        }
        EXPECT_LE(err, 1e-5 * std::max(scale, 1.0))
            << fh << "x" << fw << " window of " << rows << " rows";
      }
    }
  }
}

}  // namespace
}  // namespace ucudnn
