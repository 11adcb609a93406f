#include "common/simd.h"

#include <exception>

#include "common/env.h"
#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define UCUDNN_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define UCUDNN_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ucudnn::simd {

namespace {

// ------------------------------ scalar --------------------------------------

void dot16_acc_scalar(const float* u, const float* v, std::int64_t groups,
                      float m[16]) noexcept {
  for (std::int64_t g = 0; g < groups; ++g) {
    const float* ug = u + g * 16;
    const float* vg = v + g * 16;
    for (int e = 0; e < 16; ++e) m[e] += ug[e] * vg[e];
  }
}

void dot16_acc_batch_scalar(const float* u, const float* v,
                            std::int64_t groups, std::int64_t k,
                            float* m) noexcept {
  for (std::int64_t f = 0; f < k; ++f) {
    dot16_acc_scalar(u + f * groups * 16, v, groups, m + f * 16);
  }
}

// Explicit real arithmetic: unlike std::complex operator*, this never routes
// through __mulsc3 and vectorizes.
void cmul_acc_scalar(float* y, const float* a, const float* b,
                     std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) {
    const float ar = a[2 * i], ai = a[2 * i + 1];
    const float br = b[2 * i], bi = b[2 * i + 1];
    y[2 * i] += ar * br - ai * bi;
    y[2 * i + 1] += ar * bi + ai * br;
  }
}

void cmul_conj_acc_scalar(float* y, const float* a, const float* b,
                          std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) {
    const float ar = a[2 * i], ai = a[2 * i + 1];
    const float br = b[2 * i], bi = b[2 * i + 1];
    y[2 * i] += ar * br + ai * bi;
    y[2 * i + 1] += ai * br - ar * bi;
  }
}

void fft_butterfly_scalar(float* d0, float* d1, const float* w,
                          std::int64_t half, bool inverse) noexcept {
  const float s = inverse ? -1.0f : 1.0f;
  for (std::int64_t i = 0; i < half; ++i) {
    const float wr = w[2 * i], wi = s * w[2 * i + 1];
    const float xr = d1[2 * i], xi = d1[2 * i + 1];
    const float vr = xr * wr - xi * wi;
    const float vi = xr * wi + xi * wr;
    const float ur = d0[2 * i], ui = d0[2 * i + 1];
    d0[2 * i] = ur + vr;
    d0[2 * i + 1] = ui + vi;
    d1[2 * i] = ur - vr;
    d1[2 * i + 1] = ui - vi;
  }
}

void fft_stages_scalar(float* data, std::int64_t n, const float* w,
                       bool inverse) noexcept {
  const float* stage_w = w;
  for (std::int64_t len = 2; len <= n; len <<= 1) {
    const std::int64_t half = len / 2;
    for (std::int64_t i = 0; i < n; i += len) {
      fft_butterfly_scalar(data + 2 * i, data + 2 * (i + half), stage_w, half,
                           inverse);
    }
    stage_w += 2 * half;
  }
}

#if defined(UCUDNN_SIMD_X86)

// ------------------------------ AVX2 + FMA ----------------------------------

__attribute__((target("avx2,fma"))) void dot16_acc_avx2(const float* u,
                                                        const float* v,
                                                        std::int64_t groups,
                                                        float m[16]) noexcept {
  __m256 acc0 = _mm256_loadu_ps(m);
  __m256 acc1 = _mm256_loadu_ps(m + 8);
  for (std::int64_t g = 0; g < groups; ++g) {
    const float* ug = u + g * 16;
    const float* vg = v + g * 16;
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ug), _mm256_loadu_ps(vg), acc0);
    acc1 =
        _mm256_fmadd_ps(_mm256_loadu_ps(ug + 8), _mm256_loadu_ps(vg + 8), acc1);
  }
  _mm256_storeu_ps(m, acc0);
  _mm256_storeu_ps(m + 8, acc1);
}

// Two filters per pass share each v load and give the FMA units four
// independent accumulator chains.
__attribute__((target("avx2,fma"))) void dot16_acc_batch_avx2(
    const float* u, const float* v, std::int64_t groups, std::int64_t k,
    float* m) noexcept {
  std::int64_t f = 0;
  for (; f + 2 <= k; f += 2) {
    const float* u0 = u + f * groups * 16;
    const float* u1 = u0 + groups * 16;
    float* m0 = m + f * 16;
    float* m1 = m0 + 16;
    __m256 a00 = _mm256_loadu_ps(m0);
    __m256 a01 = _mm256_loadu_ps(m0 + 8);
    __m256 a10 = _mm256_loadu_ps(m1);
    __m256 a11 = _mm256_loadu_ps(m1 + 8);
    for (std::int64_t g = 0; g < groups; ++g) {
      const __m256 v0 = _mm256_loadu_ps(v + g * 16);
      const __m256 v1 = _mm256_loadu_ps(v + g * 16 + 8);
      a00 = _mm256_fmadd_ps(_mm256_loadu_ps(u0 + g * 16), v0, a00);
      a01 = _mm256_fmadd_ps(_mm256_loadu_ps(u0 + g * 16 + 8), v1, a01);
      a10 = _mm256_fmadd_ps(_mm256_loadu_ps(u1 + g * 16), v0, a10);
      a11 = _mm256_fmadd_ps(_mm256_loadu_ps(u1 + g * 16 + 8), v1, a11);
    }
    _mm256_storeu_ps(m0, a00);
    _mm256_storeu_ps(m0 + 8, a01);
    _mm256_storeu_ps(m1, a10);
    _mm256_storeu_ps(m1 + 8, a11);
  }
  for (; f < k; ++f) {
    dot16_acc_avx2(u + f * groups * 16, v, groups, m + f * 16);
  }
}

// 4 complexes per vector: with b_re/b_im lane-duplicated and a's pairs
// swapped, fmaddsub produces (ar*br - ai*bi, ar*bi + ai*br) in one step.
__attribute__((target("avx2,fma"))) void cmul_acc_avx2(float* y, const float* a,
                                                       const float* b,
                                                       std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 va = _mm256_loadu_ps(a + 2 * i);
    const __m256 vb = _mm256_loadu_ps(b + 2 * i);
    const __m256 br = _mm256_moveldup_ps(vb);
    const __m256 bi = _mm256_movehdup_ps(vb);
    const __m256 aswap = _mm256_permute_ps(va, 0xB1);
    const __m256 prod =
        _mm256_fmaddsub_ps(va, br, _mm256_mul_ps(aswap, bi));
    _mm256_storeu_ps(y + 2 * i,
                     _mm256_add_ps(_mm256_loadu_ps(y + 2 * i), prod));
  }
  if (i < n) cmul_acc_scalar(y + 2 * i, a + 2 * i, b + 2 * i, n - i);
}

__attribute__((target("avx2,fma"))) void cmul_conj_acc_avx2(
    float* y, const float* a, const float* b, std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 va = _mm256_loadu_ps(a + 2 * i);
    const __m256 vb = _mm256_loadu_ps(b + 2 * i);
    const __m256 br = _mm256_moveldup_ps(vb);
    const __m256 bi = _mm256_movehdup_ps(vb);
    const __m256 aswap = _mm256_permute_ps(va, 0xB1);
    // fmsubadd: even lanes a*b + c, odd lanes a*b - c ->
    // (ar*br + ai*bi, ai*br - ar*bi) = a * conj(b).
    const __m256 prod =
        _mm256_fmsubadd_ps(va, br, _mm256_mul_ps(aswap, bi));
    _mm256_storeu_ps(y + 2 * i,
                     _mm256_add_ps(_mm256_loadu_ps(y + 2 * i), prod));
  }
  if (i < n) cmul_conj_acc_scalar(y + 2 * i, a + 2 * i, b + 2 * i, n - i);
}

// The whole transform runs inside one target("avx2") function: per-stage
// dispatch would pay the SSE<->AVX transition and call overhead once per
// butterfly block, which dominates for the short early stages.
__attribute__((target("avx2,fma"))) void fft_stages_avx2(
    float* data, std::int64_t n, const float* w, bool inverse) noexcept {
  const float conj_s = inverse ? -1.0f : 1.0f;
  const __m256 conj_mask =
      inverse ? _mm256_set1_ps(-0.0f) : _mm256_set1_ps(0.0f);
  const float* stage_w = w;
  for (std::int64_t len = 2; len <= n; len <<= 1) {
    const std::int64_t half = len / 2;
    if (half == 1 && n >= 4) {
      // len == 2: twiddle is 1, butterfly pairs are adjacent. Each 128-bit
      // lane holds one (u, v) pair; swap halves, add/sub, blend to (u+v, u-v).
      for (std::int64_t i = 0; i < n; i += 4) {
        const __m256 x = _mm256_loadu_ps(data + 2 * i);
        const __m256 t = _mm256_permute_ps(x, 0x4E);
        const __m256 add = _mm256_add_ps(x, t);
        // t - x puts u - v (not v - u) in the high half of each lane, where
        // the blend takes it from.
        const __m256 sub = _mm256_sub_ps(t, x);
        _mm256_storeu_ps(data + 2 * i, _mm256_blend_ps(add, sub, 0xCC));
      }
    } else if (half == 2) {
      // len == 4: one register holds a whole group (u0, u1, v0, v1). Both
      // lanes compute w * (v0, v1); the low lane adds it to (u0, u1), the
      // high lane subtracts it.
      const __m256 vw = _mm256_broadcast_ps(
          reinterpret_cast<const __m128*>(stage_w));
      const __m256 wr = _mm256_moveldup_ps(vw);
      const __m256 wi = _mm256_xor_ps(_mm256_movehdup_ps(vw), conj_mask);
      for (std::int64_t i = 0; i < n; i += 4) {
        const __m256 x = _mm256_loadu_ps(data + 2 * i);
        const __m256 u = _mm256_permute2f128_ps(x, x, 0x00);
        const __m256 vx = _mm256_permute2f128_ps(x, x, 0x11);
        const __m256 xswap = _mm256_permute_ps(vx, 0xB1);
        const __m256 v = _mm256_fmaddsub_ps(vx, wr, _mm256_mul_ps(xswap, wi));
        _mm256_storeu_ps(data + 2 * i, _mm256_blend_ps(_mm256_add_ps(u, v),
                                                       _mm256_sub_ps(u, v),
                                                       0xF0));
      }
    } else if (half < 4) {
      for (std::int64_t i = 0; i < n; i += len) {
        float* d0 = data + 2 * i;
        float* d1 = data + 2 * (i + half);
        for (std::int64_t j = 0; j < half; ++j) {
          const float wr = stage_w[2 * j], wi = conj_s * stage_w[2 * j + 1];
          const float xr = d1[2 * j], xi = d1[2 * j + 1];
          const float vr = xr * wr - xi * wi;
          const float vi = xr * wi + xi * wr;
          const float ur = d0[2 * j], ui = d0[2 * j + 1];
          d0[2 * j] = ur + vr;
          d0[2 * j + 1] = ui + vi;
          d1[2 * j] = ur - vr;
          d1[2 * j + 1] = ui - vi;
        }
      }
    } else {
      // half is a multiple of 4: no scalar tail.
      for (std::int64_t i = 0; i < n; i += len) {
        float* d0 = data + 2 * i;
        float* d1 = data + 2 * (i + half);
        for (std::int64_t j = 0; j < half; j += 4) {
          const __m256 vw = _mm256_loadu_ps(stage_w + 2 * j);
          const __m256 wr = _mm256_moveldup_ps(vw);
          const __m256 wi = _mm256_xor_ps(_mm256_movehdup_ps(vw), conj_mask);
          const __m256 vx = _mm256_loadu_ps(d1 + 2 * j);
          const __m256 xswap = _mm256_permute_ps(vx, 0xB1);
          const __m256 v =
              _mm256_fmaddsub_ps(vx, wr, _mm256_mul_ps(xswap, wi));
          const __m256 u = _mm256_loadu_ps(d0 + 2 * j);
          _mm256_storeu_ps(d0 + 2 * j, _mm256_add_ps(u, v));
          _mm256_storeu_ps(d1 + 2 * j, _mm256_sub_ps(u, v));
        }
      }
    }
    stage_w += 2 * half;
  }
}

#elif defined(UCUDNN_SIMD_NEON)

// ------------------------------ NEON ----------------------------------------

void dot16_acc_neon(const float* u, const float* v, std::int64_t groups,
                    float m[16]) noexcept {
  float32x4_t acc0 = vld1q_f32(m);
  float32x4_t acc1 = vld1q_f32(m + 4);
  float32x4_t acc2 = vld1q_f32(m + 8);
  float32x4_t acc3 = vld1q_f32(m + 12);
  for (std::int64_t g = 0; g < groups; ++g) {
    const float* ug = u + g * 16;
    const float* vg = v + g * 16;
    acc0 = vfmaq_f32(acc0, vld1q_f32(ug), vld1q_f32(vg));
    acc1 = vfmaq_f32(acc1, vld1q_f32(ug + 4), vld1q_f32(vg + 4));
    acc2 = vfmaq_f32(acc2, vld1q_f32(ug + 8), vld1q_f32(vg + 8));
    acc3 = vfmaq_f32(acc3, vld1q_f32(ug + 12), vld1q_f32(vg + 12));
  }
  vst1q_f32(m, acc0);
  vst1q_f32(m + 4, acc1);
  vst1q_f32(m + 8, acc2);
  vst1q_f32(m + 12, acc3);
}

void dot16_acc_batch_neon(const float* u, const float* v, std::int64_t groups,
                          std::int64_t k, float* m) noexcept {
  for (std::int64_t f = 0; f < k; ++f) {
    dot16_acc_neon(u + f * groups * 16, v, groups, m + f * 16);
  }
}

void cmul_acc_neon(float* y, const float* a, const float* b,
                   std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4x2_t va = vld2q_f32(a + 2 * i);  // val[0] = re, val[1] = im
    const float32x4x2_t vb = vld2q_f32(b + 2 * i);
    float32x4x2_t vy = vld2q_f32(y + 2 * i);
    vy.val[0] = vfmaq_f32(vy.val[0], va.val[0], vb.val[0]);
    vy.val[0] = vfmsq_f32(vy.val[0], va.val[1], vb.val[1]);
    vy.val[1] = vfmaq_f32(vy.val[1], va.val[0], vb.val[1]);
    vy.val[1] = vfmaq_f32(vy.val[1], va.val[1], vb.val[0]);
    vst2q_f32(y + 2 * i, vy);
  }
  if (i < n) cmul_acc_scalar(y + 2 * i, a + 2 * i, b + 2 * i, n - i);
}

void cmul_conj_acc_neon(float* y, const float* a, const float* b,
                        std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4x2_t va = vld2q_f32(a + 2 * i);
    const float32x4x2_t vb = vld2q_f32(b + 2 * i);
    float32x4x2_t vy = vld2q_f32(y + 2 * i);
    vy.val[0] = vfmaq_f32(vy.val[0], va.val[0], vb.val[0]);
    vy.val[0] = vfmaq_f32(vy.val[0], va.val[1], vb.val[1]);
    vy.val[1] = vfmaq_f32(vy.val[1], va.val[1], vb.val[0]);
    vy.val[1] = vfmsq_f32(vy.val[1], va.val[0], vb.val[1]);
    vst2q_f32(y + 2 * i, vy);
  }
  if (i < n) cmul_conj_acc_scalar(y + 2 * i, a + 2 * i, b + 2 * i, n - i);
}

void fft_butterfly_neon(float* d0, float* d1, const float* w,
                        std::int64_t half, bool inverse) noexcept {
  std::int64_t i = 0;
  for (; i + 4 <= half; i += 4) {
    const float32x4x2_t vw = vld2q_f32(w + 2 * i);
    const float32x4_t wr = vw.val[0];
    const float32x4_t wi = inverse ? vnegq_f32(vw.val[1]) : vw.val[1];
    const float32x4x2_t vx = vld2q_f32(d1 + 2 * i);
    const float32x4_t vr =
        vfmsq_f32(vmulq_f32(vx.val[0], wr), vx.val[1], wi);
    const float32x4_t vi =
        vfmaq_f32(vmulq_f32(vx.val[0], wi), vx.val[1], wr);
    float32x4x2_t u = vld2q_f32(d0 + 2 * i);
    float32x4x2_t lo, hi;
    lo.val[0] = vaddq_f32(u.val[0], vr);
    lo.val[1] = vaddq_f32(u.val[1], vi);
    hi.val[0] = vsubq_f32(u.val[0], vr);
    hi.val[1] = vsubq_f32(u.val[1], vi);
    vst2q_f32(d0 + 2 * i, lo);
    vst2q_f32(d1 + 2 * i, hi);
  }
  if (i < half) {
    fft_butterfly_scalar(d0 + 2 * i, d1 + 2 * i, w + 2 * i, half - i, inverse);
  }
}

void fft_stages_neon(float* data, std::int64_t n, const float* w,
                     bool inverse) noexcept {
  const float* stage_w = w;
  for (std::int64_t len = 2; len <= n; len <<= 1) {
    const std::int64_t half = len / 2;
    if (half >= 4) {
      for (std::int64_t i = 0; i < n; i += len) {
        fft_butterfly_neon(data + 2 * i, data + 2 * (i + half), stage_w, half,
                           inverse);
      }
    } else {
      for (std::int64_t i = 0; i < n; i += len) {
        fft_butterfly_scalar(data + 2 * i, data + 2 * (i + half), stage_w,
                             half, inverse);
      }
    }
    stage_w += 2 * half;
  }
}

#endif

// Resolved once; UCUDNN_SIMD=0 (or any falsy value) forces the scalar path.
bool simd_enabled_by_env() noexcept {
  try {
    return env_bool("UCUDNN_SIMD", true);
  } catch (const std::exception& e) {
    UCUDNN_LOG_WARN << "UCUDNN_SIMD ignored (" << e.what()
                    << "); SIMD stays enabled";
    return true;
  }
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx2Fma: return "avx2-fma";
    case Isa::kAvx512: return "avx512f";
    case Isa::kNeon: return "neon";
    case Isa::kScalar: break;
  }
  return "scalar";
}

bool cpu_supports(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return true;
#if defined(UCUDNN_SIMD_X86)
    case Isa::kAvx2Fma:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Isa::kAvx512:
      return cpu_supports(Isa::kAvx2Fma) && __builtin_cpu_supports("avx512f");
#elif defined(UCUDNN_SIMD_NEON)
    case Isa::kNeon: return true;
#endif
    default: return false;
  }
}

Isa active() noexcept {
  static const Isa isa = [] {
    if (!simd_enabled_by_env()) return Isa::kScalar;
    for (const Isa widest : {Isa::kAvx512, Isa::kAvx2Fma, Isa::kNeon}) {
      if (cpu_supports(widest)) return widest;
    }
    return Isa::kScalar;
  }();
  return isa;
}

namespace {

// The check every primitive below makes per call; a cached flag keeps it
// to one load after the first call.
bool use_vector_path() noexcept {
  static const bool use = active() != Isa::kScalar;
  return use;
}

}  // namespace

const char* active_isa() noexcept { return isa_name(active()); }

bool vectorized() noexcept { return use_vector_path(); }

void dot16_acc_batch(const float* u, const float* v, std::int64_t groups,
                     std::int64_t k, float* m) noexcept {
#if defined(UCUDNN_SIMD_X86)
  if (use_vector_path()) return dot16_acc_batch_avx2(u, v, groups, k, m);
#elif defined(UCUDNN_SIMD_NEON)
  if (use_vector_path()) return dot16_acc_batch_neon(u, v, groups, k, m);
#endif
  dot16_acc_batch_scalar(u, v, groups, k, m);
}

void cmul_acc(float* y, const float* a, const float* b,
              std::int64_t n) noexcept {
#if defined(UCUDNN_SIMD_X86)
  if (use_vector_path()) return cmul_acc_avx2(y, a, b, n);
#elif defined(UCUDNN_SIMD_NEON)
  if (use_vector_path()) return cmul_acc_neon(y, a, b, n);
#endif
  cmul_acc_scalar(y, a, b, n);
}

void cmul_conj_acc(float* y, const float* a, const float* b,
                   std::int64_t n) noexcept {
#if defined(UCUDNN_SIMD_X86)
  if (use_vector_path()) return cmul_conj_acc_avx2(y, a, b, n);
#elif defined(UCUDNN_SIMD_NEON)
  if (use_vector_path()) return cmul_conj_acc_neon(y, a, b, n);
#endif
  cmul_conj_acc_scalar(y, a, b, n);
}

void fft_stages(float* data, std::int64_t n, const float* w,
                bool inverse) noexcept {
#if defined(UCUDNN_SIMD_X86)
  if (use_vector_path()) return fft_stages_avx2(data, n, w, inverse);
#elif defined(UCUDNN_SIMD_NEON)
  if (use_vector_path()) return fft_stages_neon(data, n, w, inverse);
#endif
  fft_stages_scalar(data, n, w, inverse);
}

}  // namespace ucudnn::simd
