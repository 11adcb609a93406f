// Runtime-dispatched SIMD primitives shared by the CPU kernel substrate
// (GEMM, FFT, Winograd, im2col). On x86-64 the instruction set is selected at
// runtime via __builtin_cpu_supports; on AArch64 the NEON path is compiled
// in unconditionally; everywhere else (and under UCUDNN_SIMD=0) a portable
// scalar fallback with identical semantics is used. All pointers may be
// unaligned; ranges must not overlap unless stated otherwise.
#pragma once

#include <cstdint>

namespace ucudnn::simd {

/// Instruction sets the CPU kernels are built for. kAvx512 only widens the
/// GEMM register tile (gemm/gemm.cc); the primitives below run their AVX2
/// path under it.
enum class Isa { kScalar, kAvx2Fma, kAvx512, kNeon };

/// "scalar", "avx2-fma", "avx512f" or "neon".
const char* isa_name(Isa isa) noexcept;

/// True when this CPU can run `isa`, whatever UCUDNN_SIMD says. kScalar is
/// always supported.
bool cpu_supports(Isa isa) noexcept;

/// The instruction set the process runs on: the widest one the CPU supports,
/// resolved once per process. UCUDNN_SIMD=0 forces kScalar. The GEMM picks
/// its register tile from this value.
Isa active() noexcept;

/// isa_name(active()).
const char* active_isa() noexcept;

/// True when a vector path (AVX2, AVX-512 or NEON) is active.
bool vectorized() noexcept;

/// The Winograd F(2x2, 3x3) per-tile channel reduction (16 strided dot
/// products per filter) over k filters sharing one input-tile transform:
/// m[f*16 + e] += sum_g u[(f*groups + g)*16 + e] * v[g*16 + e] for every
/// f in [0, k) and e in [0, 16). One dispatch covers the whole reduction.
void dot16_acc_batch(const float* u, const float* v, std::int64_t groups,
                     std::int64_t k, float* m) noexcept;

/// Interleaved complex (re, im pairs): y[i] += a[i] * b[i] over n complexes
/// (arrays hold 2*n floats).
void cmul_acc(float* y, const float* a, const float* b,
              std::int64_t n) noexcept;

/// Interleaved complex: y[i] += a[i] * conj(b[i]) over n complexes.
void cmul_conj_acc(float* y, const float* a, const float* b,
                   std::int64_t n) noexcept;

/// All radix-2 stages of an n-point FFT (n a power of two >= 2) over
/// bit-reversed interleaved complex `data` (2*n floats), using the
/// stage-concatenated forward twiddle table `w` (stage `len` contributes
/// len/2 entries starting at offset len/2 - 1; n - 1 complex entries total).
/// One dispatch per transform keeps short stages out of per-call overhead.
void fft_stages(float* data, std::int64_t n, const float* w,
                bool inverse) noexcept;

}  // namespace ucudnn::simd
