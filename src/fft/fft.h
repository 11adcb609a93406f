// FFT substrate used by the FFT-based convolution algorithms.
//
// Provides an in-place iterative radix-2 complex FFT for power-of-two sizes,
// a Bluestein chirp-z fallback for arbitrary sizes, and pruned 2-D
// transforms of real planes. Inverse transforms are normalized by 1/n.
//
// Twiddle tables and Bluestein plans are built once per size and published
// through an atomic pointer: a lookup is one acquire load, with no lock and
// no reference count, so transforms on many threads never serialize. All
// scratch memory comes from the caller.
#pragma once

#include <complex>
#include <cstddef>

namespace ucudnn::fft {

using Complex = std::complex<float>;

/// In-place complex FFT of power-of-two length (throws kBadParam otherwise).
void fft_pow2(Complex* data, std::size_t n, bool inverse);

/// Scratch cells `fft` needs for length n: 0 for a power of two, two
/// Bluestein convolution lengths otherwise.
std::size_t fft_scratch_cells(std::size_t n);

/// In-place complex FFT of arbitrary length (radix-2 or Bluestein). A length
/// that is not a power of two needs `scratch` with fft_scratch_cells(n)
/// entries (throws kBadParam if it is null).
void fft(Complex* data, std::size_t n, bool inverse,
         Complex* scratch = nullptr);

/// Forward 2-D DFT X of a real fh x fw plane (power-of-two edges) whose rows
/// from `rows` on are zero. `plane` holds only the first `rows` rows,
/// row-major, fw values each with zero imaginary parts; it is overwritten.
/// Those rows are transformed, then only the fw / 2 + 1 half-spectrum
/// columns. `half` receives them column-major, fh * (fw / 2 + 1) cells:
/// half[v * fh + u] = X[u][v] for v <= fw / 2. The values are bitwise
/// those of the same cells of the full complex transform (rows, then
/// columns) of the zero-padded plane.
void rfft2d(Complex* plane, std::size_t rows, std::size_t fh, std::size_t fw,
            Complex* half);

/// Inverse of a half spectrum in rfft2d's layout whose full spectrum is
/// Hermitian, X[(fh - u) % fh][(fw - v) % fw] = conj(X[u][v]) (true of sums
/// of products of rfft2d spectra). Computes only the first `rows` rows of
/// the real result: row i lands in the real parts of out[i * fw, i * fw + fw).
/// `half` is overwritten; `out` holds rows * fw cells.
void irfft2d(Complex* half, std::size_t fh, std::size_t fw, std::size_t rows,
             Complex* out);

/// y[i] += a[i] * b[i] for complex vectors (frequency-domain convolution).
void multiply_accumulate(const Complex* a, const Complex* b, Complex* y,
                         std::size_t n);

/// y[i] += a[i] * conj(b[i]) (frequency-domain cross-correlation).
void multiply_conj_accumulate(const Complex* a, const Complex* b, Complex* y,
                              std::size_t n);

}  // namespace ucudnn::fft
