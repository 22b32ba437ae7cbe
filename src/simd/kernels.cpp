#include "src/simd/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

// The *_simd kernels use real vector intrinsics where the target has them.
// Exactly one of these paths is active; the portable 4-lane blocked code is
// the fallback. Every path keeps the per-output accumulation order of the
// scalar kernel (taps ascending, products added one at a time, no FMA
// contraction), so all flavours here are bit-identical to *_scalar.
#if defined(__SSE2__)
#include <emmintrin.h>
#define VF_SIMD_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define VF_SIMD_NEON 1
#endif
// The lane-interleaved fused kernels also get an AVX2 instantiation on x86,
// compiled with a function target attribute (no global -mavx2) and selected
// at run time, so the binary still runs on SSE2-only hosts.
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define VF_LANES_AVX2 1
#endif

namespace vf::simd {

namespace {

// Phase-split scratch for the decimating kernels. A decimate-by-2
// correlation reads the input at stride 2, which defeats packed loads; the
// NEON code this mirrors uses vld2 to deinterleave into even/odd phase
// lanes, after which every lane load is contiguous. Deinterleaving once per
// line costs O(n) and makes the 4-lane tap loop vectorizable.
//
//   lo[i] = sum_s lp[2s]*xe[i+s] + lp[2s+1]*xo[i+s]
//
// Accumulation order per output stays t-ascending (t = 2s, then 2s+1), so
// results are bit-identical to the scalar kernel.
thread_local std::vector<float> g_phase_scratch;

inline void deinterleave(const float* x, int out_len, int taps, float** xe,
                         float** xo) {
  const int ne = out_len + (taps + 1) / 2;  // even-phase samples needed
  const int no = out_len + taps / 2;        // odd-phase samples needed
  if (static_cast<int>(g_phase_scratch.size()) < ne + no) {
    g_phase_scratch.resize(ne + no);
  }
  float* e = g_phase_scratch.data();
  float* o = e + ne;
  for (int k = 0; k < ne; ++k) e[k] = x[2 * k];
  for (int k = 0; k < no; ++k) o[k] = x[2 * k + 1];
  *xe = e;
  *xo = o;
}

}  // namespace

// --- dual_corr_decimate2 ----------------------------------------------------

void dual_corr_decimate2_scalar(const float* x, int out_len, const float* lp,
                                const float* hp, int taps, float* lo, float* hi) {
  for (int i = 0; i < out_len; ++i) {
    const float* w = x + 2 * i;
    float acc_lo = 0.0f;
    float acc_hi = 0.0f;
    for (int t = 0; t < taps; ++t) {
      acc_lo += lp[t] * w[t];
      acc_hi += hp[t] * w[t];
    }
    lo[i] = acc_lo;
    hi[i] = acc_hi;
  }
}

void dual_corr_decimate2_simd(const float* x, int out_len, const float* lp,
                              const float* hp, int taps, float* lo, float* hi) {
  // vld2-style: deinterleave, then 4-lane blocks with contiguous loads.
  float* xe;
  float* xo;
  deinterleave(x, out_len, taps, &xe, &xo);
  const int pairs = taps / 2;
  int i = 0;
#if defined(VF_SIMD_SSE2)
  for (; i + kSimdLanes <= out_len; i += kSimdLanes) {
    const float* pe = xe + i;
    const float* po = xo + i;
    __m128 acc_lo = _mm_setzero_ps();
    __m128 acc_hi = _mm_setzero_ps();
    for (int s = 0; s < pairs; ++s) {
      const __m128 e = _mm_loadu_ps(pe + s);
      const __m128 o = _mm_loadu_ps(po + s);
      acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(_mm_set1_ps(lp[2 * s]), e));
      acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(_mm_set1_ps(lp[2 * s + 1]), o));
      acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(_mm_set1_ps(hp[2 * s]), e));
      acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(_mm_set1_ps(hp[2 * s + 1]), o));
    }
    if (taps & 1) {
      const __m128 e = _mm_loadu_ps(pe + pairs);
      acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(_mm_set1_ps(lp[taps - 1]), e));
      acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(_mm_set1_ps(hp[taps - 1]), e));
    }
    _mm_storeu_ps(lo + i, acc_lo);
    _mm_storeu_ps(hi + i, acc_hi);
  }
#elif defined(VF_SIMD_NEON)
  for (; i + kSimdLanes <= out_len; i += kSimdLanes) {
    const float* pe = xe + i;
    const float* po = xo + i;
    float32x4_t acc_lo = vdupq_n_f32(0.0f);
    float32x4_t acc_hi = vdupq_n_f32(0.0f);
    for (int s = 0; s < pairs; ++s) {
      const float32x4_t e = vld1q_f32(pe + s);
      const float32x4_t o = vld1q_f32(po + s);
      acc_lo = vaddq_f32(acc_lo, vmulq_n_f32(e, lp[2 * s]));
      acc_lo = vaddq_f32(acc_lo, vmulq_n_f32(o, lp[2 * s + 1]));
      acc_hi = vaddq_f32(acc_hi, vmulq_n_f32(e, hp[2 * s]));
      acc_hi = vaddq_f32(acc_hi, vmulq_n_f32(o, hp[2 * s + 1]));
    }
    if (taps & 1) {
      const float32x4_t e = vld1q_f32(pe + pairs);
      acc_lo = vaddq_f32(acc_lo, vmulq_n_f32(e, lp[taps - 1]));
      acc_hi = vaddq_f32(acc_hi, vmulq_n_f32(e, hp[taps - 1]));
    }
    vst1q_f32(lo + i, acc_lo);
    vst1q_f32(hi + i, acc_hi);
  }
#else
  for (; i + kSimdLanes <= out_len; i += kSimdLanes) {
    const float* pe = xe + i;
    const float* po = xo + i;
    float lo0 = 0.0f, lo1 = 0.0f, lo2 = 0.0f, lo3 = 0.0f;
    float hi0 = 0.0f, hi1 = 0.0f, hi2 = 0.0f, hi3 = 0.0f;
    for (int s = 0; s < pairs; ++s) {
      const float cle = lp[2 * s];
      const float clo = lp[2 * s + 1];
      const float che = hp[2 * s];
      const float cho = hp[2 * s + 1];
      const float e0 = pe[s], e1 = pe[s + 1], e2 = pe[s + 2], e3 = pe[s + 3];
      const float o0 = po[s], o1 = po[s + 1], o2 = po[s + 2], o3 = po[s + 3];
      lo0 += cle * e0;
      lo1 += cle * e1;
      lo2 += cle * e2;
      lo3 += cle * e3;
      lo0 += clo * o0;
      lo1 += clo * o1;
      lo2 += clo * o2;
      lo3 += clo * o3;
      hi0 += che * e0;
      hi1 += che * e1;
      hi2 += che * e2;
      hi3 += che * e3;
      hi0 += cho * o0;
      hi1 += cho * o1;
      hi2 += cho * o2;
      hi3 += cho * o3;
    }
    if (taps & 1) {
      const float cl = lp[taps - 1];
      const float ch = hp[taps - 1];
      lo0 += cl * pe[pairs];
      lo1 += cl * pe[pairs + 1];
      lo2 += cl * pe[pairs + 2];
      lo3 += cl * pe[pairs + 3];
      hi0 += ch * pe[pairs];
      hi1 += ch * pe[pairs + 1];
      hi2 += ch * pe[pairs + 2];
      hi3 += ch * pe[pairs + 3];
    }
    lo[i] = lo0;
    lo[i + 1] = lo1;
    lo[i + 2] = lo2;
    lo[i + 3] = lo3;
    hi[i] = hi0;
    hi[i + 1] = hi1;
    hi[i + 2] = hi2;
    hi[i + 3] = hi3;
  }
#endif
  if (i < out_len) {
    dual_corr_decimate2_scalar(x + 2 * i, out_len - i, lp, hp, taps, lo + i, hi + i);
  }
}

// --- dual_corr_decimate2_ileave ---------------------------------------------

void dual_corr_decimate2_ileave_scalar(const float* x, int pairs, const float* ca,
                                       const float* cb, int taps, float* out) {
  for (int k = 0; k < pairs; ++k) {
    const float* w = x + 2 * k;
    float acc_a = 0.0f;
    float acc_b = 0.0f;
    for (int t = 0; t < taps; ++t) {
      acc_a += ca[t] * w[t];
      acc_b += cb[t] * w[t];
    }
    out[2 * k] = acc_a;
    out[2 * k + 1] = acc_b;
  }
}

void dual_corr_decimate2_ileave_simd(const float* x, int pairs, const float* ca,
                                     const float* cb, int taps, float* out) {
  // Same vld2-style phase split as the analysis kernel; the two output
  // phases (even via ca, odd via cb) are stored back interleaved (vst2).
  float* xe;
  float* xo;
  deinterleave(x, pairs, taps, &xe, &xo);
  const int tap_pairs = taps / 2;
  int k = 0;
#if defined(VF_SIMD_SSE2)
  for (; k + kSimdLanes <= pairs; k += kSimdLanes) {
    const float* pe = xe + k;
    const float* po = xo + k;
    __m128 acc_a = _mm_setzero_ps();
    __m128 acc_b = _mm_setzero_ps();
    for (int s = 0; s < tap_pairs; ++s) {
      const __m128 e = _mm_loadu_ps(pe + s);
      const __m128 o = _mm_loadu_ps(po + s);
      acc_a = _mm_add_ps(acc_a, _mm_mul_ps(_mm_set1_ps(ca[2 * s]), e));
      acc_a = _mm_add_ps(acc_a, _mm_mul_ps(_mm_set1_ps(ca[2 * s + 1]), o));
      acc_b = _mm_add_ps(acc_b, _mm_mul_ps(_mm_set1_ps(cb[2 * s]), e));
      acc_b = _mm_add_ps(acc_b, _mm_mul_ps(_mm_set1_ps(cb[2 * s + 1]), o));
    }
    if (taps & 1) {
      const __m128 e = _mm_loadu_ps(pe + tap_pairs);
      acc_a = _mm_add_ps(acc_a, _mm_mul_ps(_mm_set1_ps(ca[taps - 1]), e));
      acc_b = _mm_add_ps(acc_b, _mm_mul_ps(_mm_set1_ps(cb[taps - 1]), e));
    }
    // unpacklo/hi interleave the even (acc_a) and odd (acc_b) phases back
    // into out[2k], out[2k+1], ... — the vst2 of the paper's NEON code.
    _mm_storeu_ps(out + 2 * k, _mm_unpacklo_ps(acc_a, acc_b));
    _mm_storeu_ps(out + 2 * k + 4, _mm_unpackhi_ps(acc_a, acc_b));
  }
#elif defined(VF_SIMD_NEON)
  for (; k + kSimdLanes <= pairs; k += kSimdLanes) {
    const float* pe = xe + k;
    const float* po = xo + k;
    float32x4_t acc_a = vdupq_n_f32(0.0f);
    float32x4_t acc_b = vdupq_n_f32(0.0f);
    for (int s = 0; s < tap_pairs; ++s) {
      const float32x4_t e = vld1q_f32(pe + s);
      const float32x4_t o = vld1q_f32(po + s);
      acc_a = vaddq_f32(acc_a, vmulq_n_f32(e, ca[2 * s]));
      acc_a = vaddq_f32(acc_a, vmulq_n_f32(o, ca[2 * s + 1]));
      acc_b = vaddq_f32(acc_b, vmulq_n_f32(e, cb[2 * s]));
      acc_b = vaddq_f32(acc_b, vmulq_n_f32(o, cb[2 * s + 1]));
    }
    if (taps & 1) {
      const float32x4_t e = vld1q_f32(pe + tap_pairs);
      acc_a = vaddq_f32(acc_a, vmulq_n_f32(e, ca[taps - 1]));
      acc_b = vaddq_f32(acc_b, vmulq_n_f32(e, cb[taps - 1]));
    }
    const float32x4x2_t ab = {{acc_a, acc_b}};
    vst2q_f32(out + 2 * k, ab);
  }
#else
  for (; k + kSimdLanes <= pairs; k += kSimdLanes) {
    const float* pe = xe + k;
    const float* po = xo + k;
    float a[kSimdLanes] = {};
    float b[kSimdLanes] = {};
    for (int s = 0; s < tap_pairs; ++s) {
      const float fae = ca[2 * s];
      const float fao = ca[2 * s + 1];
      const float fbe = cb[2 * s];
      const float fbo = cb[2 * s + 1];
      for (int l = 0; l < kSimdLanes; ++l) {
        const float e = pe[s + l];
        const float o = po[s + l];
        a[l] += fae * e;
        a[l] += fao * o;
        b[l] += fbe * e;
        b[l] += fbo * o;
      }
    }
    if (taps & 1) {
      const float fa = ca[taps - 1];
      const float fb = cb[taps - 1];
      for (int l = 0; l < kSimdLanes; ++l) {
        a[l] += fa * pe[tap_pairs + l];
        b[l] += fb * pe[tap_pairs + l];
      }
    }
    for (int l = 0; l < kSimdLanes; ++l) {
      out[2 * (k + l)] = a[l];
      out[2 * (k + l) + 1] = b[l];
    }
  }
#endif
  if (k < pairs) {
    dual_corr_decimate2_ileave_scalar(x + 2 * k, pairs - k, ca, cb, taps,
                                      out + 2 * k);
  }
}

// --- complex_magnitude ------------------------------------------------------

void complex_magnitude_scalar(const float* re, const float* im, int n, float* mag) {
  for (int i = 0; i < n; ++i) {
    mag[i] = std::sqrt(re[i] * re[i] + im[i] * im[i]);
  }
}

void complex_magnitude_simd(const float* re, const float* im, int n, float* mag) {
  int i = 0;
#if defined(VF_SIMD_SSE2)
  // sqrtps is correctly rounded (IEEE), identical to scalar sqrtf.
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    const __m128 r = _mm_loadu_ps(re + i);
    const __m128 m = _mm_loadu_ps(im + i);
    const __m128 sum = _mm_add_ps(_mm_mul_ps(r, r), _mm_mul_ps(m, m));
    _mm_storeu_ps(mag + i, _mm_sqrt_ps(sum));
  }
#elif defined(VF_SIMD_NEON) && defined(__aarch64__)
  // vsqrtq is AArch64-only; ARMv7 NEON has just the rsqrt estimate, which is
  // not bit-identical, so 32-bit ARM takes the blocked path below.
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    const float32x4_t r = vld1q_f32(re + i);
    const float32x4_t m = vld1q_f32(im + i);
    vst1q_f32(mag + i, vsqrtq_f32(vaddq_f32(vmulq_f32(r, r), vmulq_f32(m, m))));
  }
#else
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    const float s0 = re[i] * re[i] + im[i] * im[i];
    const float s1 = re[i + 1] * re[i + 1] + im[i + 1] * im[i + 1];
    const float s2 = re[i + 2] * re[i + 2] + im[i + 2] * im[i + 2];
    const float s3 = re[i + 3] * re[i + 3] + im[i + 3] * im[i + 3];
    mag[i] = std::sqrt(s0);
    mag[i + 1] = std::sqrt(s1);
    mag[i + 2] = std::sqrt(s2);
    mag[i + 3] = std::sqrt(s3);
  }
#endif
  for (; i < n; ++i) mag[i] = std::sqrt(re[i] * re[i] + im[i] * im[i]);
}

// --- select_by_magnitude ----------------------------------------------------

void select_by_magnitude_scalar(const float* a_re, const float* a_im, const float* b_re,
                                const float* b_im, const float* mag_a,
                                const float* mag_b, int n, float* out_re,
                                float* out_im) {
  for (int i = 0; i < n; ++i) {
    const bool take_a = mag_a[i] >= mag_b[i];
    out_re[i] = take_a ? a_re[i] : b_re[i];
    out_im[i] = take_a ? a_im[i] : b_im[i];
  }
}

void select_by_magnitude_simd(const float* a_re, const float* a_im, const float* b_re,
                              const float* b_im, const float* mag_a, const float* mag_b,
                              int n, float* out_re, float* out_im) {
  // Bitwise select (not an arithmetic blend): the output is one of the two
  // inputs verbatim, so -0.0 and other sign bits survive and the result is
  // bit-identical to the scalar kernel.
  int i = 0;
#if defined(VF_SIMD_SSE2)
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    const __m128 take_a = _mm_cmpge_ps(_mm_loadu_ps(mag_a + i), _mm_loadu_ps(mag_b + i));
    const __m128 re = _mm_or_ps(_mm_and_ps(take_a, _mm_loadu_ps(a_re + i)),
                                _mm_andnot_ps(take_a, _mm_loadu_ps(b_re + i)));
    const __m128 im = _mm_or_ps(_mm_and_ps(take_a, _mm_loadu_ps(a_im + i)),
                                _mm_andnot_ps(take_a, _mm_loadu_ps(b_im + i)));
    _mm_storeu_ps(out_re + i, re);
    _mm_storeu_ps(out_im + i, im);
  }
#elif defined(VF_SIMD_NEON)
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    const uint32x4_t take_a = vcgeq_f32(vld1q_f32(mag_a + i), vld1q_f32(mag_b + i));
    vst1q_f32(out_re + i,
              vbslq_f32(take_a, vld1q_f32(a_re + i), vld1q_f32(b_re + i)));
    vst1q_f32(out_im + i,
              vbslq_f32(take_a, vld1q_f32(a_im + i), vld1q_f32(b_im + i)));
  }
#endif
  for (; i < n; ++i) {
    const bool take_a = mag_a[i] >= mag_b[i];
    out_re[i] = take_a ? a_re[i] : b_re[i];
    out_im[i] = take_a ? a_im[i] : b_im[i];
  }
}

// --- select_half -------------------------------------------------------------
// One component of select_by_magnitude: the fused synthesis kernel selects
// the lo and hi streams of a line independently. Pure data movement and
// chunk-invariant per element, so selecting a stream lane by lane produces
// the same bits as the staged whole-plane select.

void select_half_scalar(const float* a, const float* b, const float* mag_a,
                        const float* mag_b, int n, float* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = mag_a[i] >= mag_b[i] ? a[i] : b[i];
  }
}

// --- average ----------------------------------------------------------------

void average_scalar(const float* a, const float* b, int n, float* out) {
  for (int i = 0; i < n; ++i) out[i] = 0.5f * (a[i] + b[i]);
}

void average_simd(const float* a, const float* b, int n, float* out) {
  int i = 0;
#if defined(VF_SIMD_SSE2)
  const __m128 half = _mm_set1_ps(0.5f);
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    const __m128 sum = _mm_add_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    _mm_storeu_ps(out + i, _mm_mul_ps(half, sum));
  }
#elif defined(VF_SIMD_NEON)
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    const float32x4_t sum = vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    vst1q_f32(out + i, vmulq_n_f32(sum, 0.5f));
  }
#endif
  for (; i < n; ++i) out[i] = 0.5f * (a[i] + b[i]);
}

// --- multi-line variants -----------------------------------------------------
//
// Per-line delegation is the contract, not an implementation shortcut: the
// bit-identity guarantees above are stated per line, so a multi-line call
// must be a sequence of single-line calls of the same flavour. The batch
// earns its keep above this layer (one dispatch per block, shared scratch,
// contiguous line layout from the transpose).

void dual_corr_decimate2_ml_scalar(const float* x, int x_stride, int nlines,
                                   int out_len, const float* lp, const float* hp,
                                   int taps, float* lo, float* hi, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    dual_corr_decimate2_scalar(x + l * x_stride, out_len, lp, hp, taps,
                               lo + l * out_stride, hi + l * out_stride);
  }
}

void dual_corr_decimate2_ml_simd(const float* x, int x_stride, int nlines,
                                 int out_len, const float* lp, const float* hp,
                                 int taps, float* lo, float* hi, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    dual_corr_decimate2_simd(x + l * x_stride, out_len, lp, hp, taps,
                             lo + l * out_stride, hi + l * out_stride);
  }
}

void dual_corr_decimate2_ileave_ml_scalar(const float* x, int x_stride, int nlines,
                                          int pairs, const float* ca, const float* cb,
                                          int taps, float* out, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    dual_corr_decimate2_ileave_scalar(x + l * x_stride, pairs, ca, cb, taps,
                                      out + l * out_stride);
  }
}

void dual_corr_decimate2_ileave_ml_simd(const float* x, int x_stride, int nlines,
                                        int pairs, const float* ca, const float* cb,
                                        int taps, float* out, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    dual_corr_decimate2_ileave_simd(x + l * x_stride, pairs, ca, cb, taps,
                                    out + l * out_stride);
  }
}

void complex_magnitude_ml_scalar(const float* re, const float* im, int nlines,
                                 int len, int in_stride, float* mag, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    complex_magnitude_scalar(re + l * in_stride, im + l * in_stride, len,
                             mag + l * out_stride);
  }
}

void complex_magnitude_ml_simd(const float* re, const float* im, int nlines,
                               int len, int in_stride, float* mag, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    complex_magnitude_simd(re + l * in_stride, im + l * in_stride, len,
                           mag + l * out_stride);
  }
}

void select_by_magnitude_ml_scalar(const float* a_re, const float* a_im,
                                   const float* b_re, const float* b_im,
                                   const float* mag_a, const float* mag_b,
                                   int nlines, int len, int in_stride,
                                   float* out_re, float* out_im, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    select_by_magnitude_scalar(a_re + l * in_stride, a_im + l * in_stride,
                               b_re + l * in_stride, b_im + l * in_stride,
                               mag_a + l * in_stride, mag_b + l * in_stride, len,
                               out_re + l * out_stride, out_im + l * out_stride);
  }
}

void select_by_magnitude_ml_simd(const float* a_re, const float* a_im,
                                 const float* b_re, const float* b_im,
                                 const float* mag_a, const float* mag_b,
                                 int nlines, int len, int in_stride,
                                 float* out_re, float* out_im, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    select_by_magnitude_simd(a_re + l * in_stride, a_im + l * in_stride,
                             b_re + l * in_stride, b_im + l * in_stride,
                             mag_a + l * in_stride, mag_b + l * in_stride, len,
                             out_re + l * out_stride, out_im + l * out_stride);
  }
}

// The autovec _ml wrappers live here, not in kernels_autovec.cpp: that TU
// only holds loops the vectorization report must certify, and a per-line
// dispatch loop is not one. The inner calls still land on the autovec
// flavours, so the parity contract is unchanged.

void dual_corr_decimate2_ml_autovec(const float* x, int x_stride, int nlines,
                                    int out_len, const float* lp, const float* hp,
                                    int taps, float* lo, float* hi, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    dual_corr_decimate2_autovec(x + l * x_stride, out_len, lp, hp, taps,
                                lo + l * out_stride, hi + l * out_stride);
  }
}

void dual_corr_decimate2_ileave_ml_autovec(const float* x, int x_stride, int nlines,
                                           int pairs, const float* ca, const float* cb,
                                           int taps, float* out, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    dual_corr_decimate2_ileave_autovec(x + l * x_stride, pairs, ca, cb, taps,
                                       out + l * out_stride);
  }
}

void complex_magnitude_ml_autovec(const float* re, const float* im, int nlines,
                                  int len, int in_stride, float* mag, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    complex_magnitude_autovec(re + l * in_stride, im + l * in_stride, len,
                              mag + l * out_stride);
  }
}

void select_by_magnitude_ml_autovec(const float* a_re, const float* a_im,
                                    const float* b_re, const float* b_im,
                                    const float* mag_a, const float* mag_b,
                                    int nlines, int len, int in_stride,
                                    float* out_re, float* out_im, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    select_by_magnitude_autovec(a_re + l * in_stride, a_im + l * in_stride,
                                b_re + l * in_stride, b_im + l * in_stride,
                                mag_a + l * in_stride, mag_b + l * in_stride, len,
                                out_re + l * out_stride, out_im + l * out_stride);
  }
}

// --- fused cross-stage kernels (lane-interleaved) ---------------------------
//
// Lane l of every call is one image column: sample j at x[j*stride + l].
// The scalar flavour is plain lane loops (and perfbench's reference); the
// simd flavour is lane_kernels.inc instantiated per instruction set below.

namespace {

constexpr int kLanes = kMaxLinesPerCall;

// Per-thread scratch of the fused kernels: the extension slab of a synthesis
// call. Grows to the largest call, then stays (no steady-state allocation).
thread_local std::vector<float> g_lane_scratch;

float* lane_scratch(std::size_t n) {
  if (g_lane_scratch.size() < n) g_lane_scratch.resize(n);
  return g_lane_scratch.data();
}

// Partial-lane load/store through a stack row, for the vector types that
// have no masked load/store: only the first n floats at p are touched.
template <class V>
V load_n_via_row(const float* p, int n) {
  alignas(32) float row[kLanes] = {};
  for (int l = 0; l < kLanes; ++l) {
    if (l < n) row[l] = p[l];
  }
  return V::load(row);
}

template <class V>
void store_n_via_row(const V& v, float* p, int n) {
  alignas(32) float row[kLanes];
  v.store(row);
  for (int l = 0; l < kLanes; ++l) {
    if (l < n) p[l] = row[l];
  }
}

// Portable 8-lane vector: plain per-lane loops the compiler may vectorize.
struct PortableV {
  static constexpr int kUnroll = 1;
  float f[kLanes];
  static PortableV zero() { return set1(0.0f); }
  static PortableV set1(float x) {
    PortableV v;
    for (float& e : v.f) e = x;
    return v;
  }
  static PortableV load(const float* p) {
    PortableV v;
    std::memcpy(v.f, p, sizeof(v.f));
    return v;
  }
  void store(float* p) const { std::memcpy(p, f, sizeof(f)); }
  static PortableV load_n(const float* p, int n) {
    return load_n_via_row<PortableV>(p, n);
  }
  void store_n(float* p, int n) const { store_n_via_row(*this, p, n); }
  PortableV operator+(const PortableV& b) const {
    PortableV v;
    for (int l = 0; l < kLanes; ++l) v.f[l] = f[l] + b.f[l];
    return v;
  }
  PortableV operator*(const PortableV& b) const {
    PortableV v;
    for (int l = 0; l < kLanes; ++l) v.f[l] = f[l] * b.f[l];
    return v;
  }
  static PortableV sqrt(const PortableV& a) {
    PortableV v;
    for (int l = 0; l < kLanes; ++l) v.f[l] = std::sqrt(a.f[l]);
    return v;
  }
  static PortableV select_ge(const PortableV& ma, const PortableV& mb,
                             const PortableV& a, const PortableV& b) {
    PortableV v;
    for (int l = 0; l < kLanes; ++l) v.f[l] = ma.f[l] >= mb.f[l] ? a.f[l] : b.f[l];
    return v;
  }
};

namespace lanes_portable {
using V = PortableV;
#include "src/simd/lane_kernels.inc"
}  // namespace lanes_portable

#if defined(VF_SIMD_SSE2)
// Two __m128 halves. cmpge is false on NaN, like the scalar >=, and the
// select is bitwise, so sign bits survive.
struct Sse2V {
  static constexpr int kUnroll = 1;
  __m128 lo, hi;
  static Sse2V zero() { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
  static Sse2V set1(float x) {
    const __m128 v = _mm_set1_ps(x);
    return {v, v};
  }
  static Sse2V load(const float* p) { return {_mm_loadu_ps(p), _mm_loadu_ps(p + 4)}; }
  void store(float* p) const {
    _mm_storeu_ps(p, lo);
    _mm_storeu_ps(p + 4, hi);
  }
  static Sse2V load_n(const float* p, int n) { return load_n_via_row<Sse2V>(p, n); }
  void store_n(float* p, int n) const { store_n_via_row(*this, p, n); }
  Sse2V operator+(Sse2V b) const { return {_mm_add_ps(lo, b.lo), _mm_add_ps(hi, b.hi)}; }
  Sse2V operator*(Sse2V b) const { return {_mm_mul_ps(lo, b.lo), _mm_mul_ps(hi, b.hi)}; }
  static Sse2V sqrt(Sse2V a) { return {_mm_sqrt_ps(a.lo), _mm_sqrt_ps(a.hi)}; }
  static __m128 pick(__m128 m, __m128 a, __m128 b) {
    return _mm_or_ps(_mm_and_ps(m, a), _mm_andnot_ps(m, b));
  }
  static Sse2V select_ge(Sse2V ma, Sse2V mb, Sse2V a, Sse2V b) {
    return {pick(_mm_cmpge_ps(ma.lo, mb.lo), a.lo, b.lo),
            pick(_mm_cmpge_ps(ma.hi, mb.hi), a.hi, b.hi)};
  }
};

namespace lanes_sse2 {
using V = Sse2V;
#include "src/simd/lane_kernels.inc"
}  // namespace lanes_sse2
#elif defined(VF_SIMD_NEON)
// Two float32x4_t halves; vmulq + vaddq stay separately rounded.
struct NeonV {
  static constexpr int kUnroll = 1;
  float32x4_t lo, hi;
  static NeonV zero() { return set1(0.0f); }
  static NeonV set1(float x) {
    const float32x4_t v = vdupq_n_f32(x);
    return {v, v};
  }
  static NeonV load(const float* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
  void store(float* p) const {
    vst1q_f32(p, lo);
    vst1q_f32(p + 4, hi);
  }
  static NeonV load_n(const float* p, int n) { return load_n_via_row<NeonV>(p, n); }
  void store_n(float* p, int n) const { store_n_via_row(*this, p, n); }
  NeonV operator+(NeonV b) const { return {vaddq_f32(lo, b.lo), vaddq_f32(hi, b.hi)}; }
  NeonV operator*(NeonV b) const { return {vmulq_f32(lo, b.lo), vmulq_f32(hi, b.hi)}; }
  static NeonV sqrt(NeonV a) {
#if defined(__aarch64__)
    return {vsqrtq_f32(a.lo), vsqrtq_f32(a.hi)};
#else
    // ARMv7 NEON has only the reciprocal-sqrt estimate: go lane by lane.
    alignas(16) float f[kLanes];
    a.store(f);
    for (float& e : f) e = std::sqrt(e);
    return load(f);
#endif
  }
  static NeonV select_ge(NeonV ma, NeonV mb, NeonV a, NeonV b) {
    return {vbslq_f32(vcgeq_f32(ma.lo, mb.lo), a.lo, b.lo),
            vbslq_f32(vcgeq_f32(ma.hi, mb.hi), a.hi, b.hi)};
  }
};

namespace lanes_neon {
using V = NeonV;
#include "src/simd/lane_kernels.inc"
}  // namespace lanes_neon
#endif

#if defined(VF_LANES_AVX2)
// One __m256. Everything from here to the matching pop is compiled with
// target("avx2") — never "fma", so products and sums stay separately
// rounded — and only runs after __builtin_cpu_supports("avx2").
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif
struct Avx2V {
  static constexpr int kUnroll = 2;
  __m256 v;
  static Avx2V zero() { return {_mm256_setzero_ps()}; }
  static Avx2V set1(float x) { return {_mm256_set1_ps(x)}; }
  static Avx2V load(const float* p) { return {_mm256_loadu_ps(p)}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }
  // Masked lanes are neither read (no fault, loaded as +0.0f) nor written.
  static __m256i first(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Avx2V load_n(const float* p, int n) {
    return {_mm256_maskload_ps(p, first(n))};
  }
  void store_n(float* p, int n) const { _mm256_maskstore_ps(p, first(n), v); }
  // Member operators: GCC does not apply a target pragma to in-class
  // friend definitions.
  Avx2V operator+(Avx2V b) const { return {_mm256_add_ps(v, b.v)}; }
  Avx2V operator*(Avx2V b) const { return {_mm256_mul_ps(v, b.v)}; }
  static Avx2V sqrt(Avx2V a) { return {_mm256_sqrt_ps(a.v)}; }
  static Avx2V select_ge(Avx2V ma, Avx2V mb, Avx2V a, Avx2V b) {
    return {_mm256_blendv_ps(b.v, a.v, _mm256_cmp_ps(ma.v, mb.v, _CMP_GE_OQ))};
  }
};

namespace lanes_avx2 {
using V = Avx2V;
#include "src/simd/lane_kernels.inc"
}  // namespace lanes_avx2
#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

bool host_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}
#endif

// The instance an entry point runs: the last runnable one of its list
// (lane_kernel_variants, transpose_variants).
template <class Variant>
const Variant& last_runnable(const Variant* (*list)(int*)) {
  int n = 0;
  const Variant* v = list(&n);
  const Variant* pick = v;
  for (int i = 0; i < n; ++i) {
    if (v[i].runnable) pick = v + i;
  }
  return *pick;
}

// The instantiation the *_simd entry points run.
const LaneKernelVariant& best_lane_kernels() {
  static const LaneKernelVariant& best = last_runnable(lane_kernel_variants);
  return best;
}

}  // namespace

const LaneKernelVariant* lane_kernel_variants(int* count) {
  static const LaneKernelVariant variants[] = {
      {"portable", true, lanes_portable::analyze_mag_ml,
       lanes_portable::select_synth_ml},
#if defined(VF_SIMD_SSE2)
      {"sse2", true, lanes_sse2::analyze_mag_ml, lanes_sse2::select_synth_ml},
#elif defined(VF_SIMD_NEON)
      {"neon", true, lanes_neon::analyze_mag_ml, lanes_neon::select_synth_ml},
#endif
#if defined(VF_LANES_AVX2)
      {"avx2", host_has_avx2(), lanes_avx2::analyze_mag_ml,
       lanes_avx2::select_synth_ml},
#endif
  };
  *count = static_cast<int>(sizeof(variants) / sizeof(variants[0]));
  return variants;
}

const char* simd_isa_name() {
  const bool avx2 = std::strcmp(best_lane_kernels().isa, "avx2") == 0;
#if defined(VF_SIMD_SSE2)
  return avx2 ? "sse2+avx2" : "sse2";
#elif defined(VF_SIMD_NEON)
  return "neon";
#else
  return avx2 ? "blocked+avx2" : "blocked";
#endif
}

void analyze_mag_ml_scalar(const float* x_re, const float* x_im, int x_stride,
                           int nlines, int out_len, const float* lp_re,
                           const float* hp_re, const float* lp_im,
                           const float* hp_im, int taps, float* lo_re,
                           float* hi_re, float* lo_im, float* hi_im,
                           float* mag_lo, float* mag_hi, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    for (int i = 0; i < out_len; ++i) {
      float acc_lr = 0.0f, acc_hr = 0.0f, acc_li = 0.0f, acc_hi = 0.0f;
      for (int t = 0; t < taps; ++t) {
        const std::size_t j = static_cast<std::size_t>(2 * i + t) * x_stride + l;
        acc_lr += lp_re[t] * x_re[j];
        acc_hr += hp_re[t] * x_re[j];
        acc_li += lp_im[t] * x_im[j];
        acc_hi += hp_im[t] * x_im[j];
      }
      const std::size_t o = static_cast<std::size_t>(i) * out_stride + l;
      lo_re[o] = acc_lr;
      hi_re[o] = acc_hr;
      lo_im[o] = acc_li;
      hi_im[o] = acc_hi;
      if (mag_lo != nullptr) mag_lo[o] = std::sqrt(acc_lr * acc_lr + acc_li * acc_li);
      if (mag_hi != nullptr) mag_hi[o] = std::sqrt(acc_hr * acc_hr + acc_hi * acc_hi);
    }
  }
}

void analyze_mag_ml_simd(const float* x_re, const float* x_im, int x_stride,
                         int nlines, int out_len, const float* lp_re,
                         const float* hp_re, const float* lp_im,
                         const float* hp_im, int taps, float* lo_re,
                         float* hi_re, float* lo_im, float* hi_im,
                         float* mag_lo, float* mag_hi, int out_stride) {
  best_lane_kernels().analyze_mag_ml(x_re, x_im, x_stride, nlines, out_len,
                                     lp_re, hp_re, lp_im, hp_im, taps, lo_re,
                                     hi_re, lo_im, hi_im, mag_lo, mag_hi,
                                     out_stride);
}

void select_synth_ml_scalar(const float* lo_a, const float* lo_b,
                            const float* mlo_a, const float* mlo_b,
                            const float* hi_a, const float* hi_b,
                            const float* mhi_a, const float* mhi_b,
                            int in_stride, int nlines, int pairs,
                            const float* ca, const float* cb, int taps,
                            int synth_offset, float* out, int out_stride) {
  const int n = 2 * pairs;
  if (n <= 0) return;
  float* ext = lane_scratch(static_cast<std::size_t>(n + taps));
  for (int l = 0; l < nlines; ++l) {
    int src = ((-synth_offset) % n + n) % n;
    for (int k = 0; k < n + taps; ++k) {
      const std::size_t j = static_cast<std::size_t>(src >> 1) * in_stride + l;
      const bool odd = (src & 1) != 0;
      const float* a = odd ? hi_a : lo_a;
      const float* b = odd ? hi_b : lo_b;
      const float* ma = odd ? mhi_a : mlo_a;
      const float* mb = odd ? mhi_b : mlo_b;
      ext[k] = b == nullptr || ma[j] >= mb[j] ? a[j] : b[j];
      if (++src == n) src = 0;
    }
    for (int k = 0; k < pairs; ++k) {
      float acc_a = 0.0f, acc_b = 0.0f;
      for (int t = 0; t < taps; ++t) {
        acc_a += ca[t] * ext[2 * k + t];
        acc_b += cb[t] * ext[2 * k + t];
      }
      out[static_cast<std::size_t>(2 * k) * out_stride + l] = acc_a;
      out[static_cast<std::size_t>(2 * k + 1) * out_stride + l] = acc_b;
    }
  }
}

void select_synth_ml_simd(const float* lo_a, const float* lo_b,
                          const float* mlo_a, const float* mlo_b,
                          const float* hi_a, const float* hi_b,
                          const float* mhi_a, const float* mhi_b,
                          int in_stride, int nlines, int pairs, const float* ca,
                          const float* cb, int taps, int synth_offset,
                          float* out, int out_stride) {
  best_lane_kernels().select_synth_ml(lo_a, lo_b, mlo_a, mlo_b, hi_a, hi_b,
                                      mhi_a, mhi_b, in_stride, nlines, pairs, ca,
                                      cb, taps, synth_offset, out, out_stride);
}

// --- transpose --------------------------------------------------------------

namespace {

inline void transpose_tail(const float* src, int rows, int cols, int src_stride,
                           float* dst, int dst_stride) {
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      dst[c * dst_stride + r] = src[r * src_stride + c];
    }
  }
}

// 8x8 tiles, the whole tile on the edges and a register micro-kernel
// inside. always_inline so the AVX2 instance below compiles the loop, and
// the micro-kernel it inlines, under its own target attribute.
template <class Tile>
__attribute__((always_inline)) inline void transpose_tiles(
    const float* src, int rows, int cols, int src_stride, float* dst,
    int dst_stride) {
  constexpr int kTile = 8;
  const int r8 = rows & ~(kTile - 1);
  const int c8 = cols & ~(kTile - 1);
  for (int r = 0; r < r8; r += kTile) {
    for (int c = 0; c < c8; c += kTile) {
      Tile::transpose_8x8(src + r * src_stride + c, src_stride,
                          dst + c * dst_stride + r, dst_stride);
    }
    // right edge of this tile row
    if (c8 < cols) {
      transpose_tail(src + r * src_stride + c8, kTile, cols - c8, src_stride,
                     dst + c8 * dst_stride + r, dst_stride);
    }
  }
  // bottom edge, full width
  if (r8 < rows) {
    transpose_tail(src + r8 * src_stride, rows - r8, cols, src_stride,
                   dst + r8, dst_stride);
  }
}

struct PortableTile {
  static void transpose_8x8(const float* src, int src_stride, float* dst,
                            int dst_stride) {
    transpose_tail(src, 8, 8, src_stride, dst, dst_stride);
  }
};

#if defined(VF_SIMD_SSE2)
inline void transpose_4x4(const float* src, int src_stride, float* dst,
                          int dst_stride) {
  __m128 r0 = _mm_loadu_ps(src);
  __m128 r1 = _mm_loadu_ps(src + src_stride);
  __m128 r2 = _mm_loadu_ps(src + 2 * src_stride);
  __m128 r3 = _mm_loadu_ps(src + 3 * src_stride);
  _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
  _mm_storeu_ps(dst, r0);
  _mm_storeu_ps(dst + dst_stride, r1);
  _mm_storeu_ps(dst + 2 * dst_stride, r2);
  _mm_storeu_ps(dst + 3 * dst_stride, r3);
}
#elif defined(VF_SIMD_NEON)
inline void transpose_4x4(const float* src, int src_stride, float* dst,
                          int dst_stride) {
  const float32x4_t r0 = vld1q_f32(src);
  const float32x4_t r1 = vld1q_f32(src + src_stride);
  const float32x4_t r2 = vld1q_f32(src + 2 * src_stride);
  const float32x4_t r3 = vld1q_f32(src + 3 * src_stride);
  const float32x4x2_t t01 = vtrnq_f32(r0, r1);
  const float32x4x2_t t23 = vtrnq_f32(r2, r3);
  const float32x4_t c0 =
      vcombine_f32(vget_low_f32(t01.val[0]), vget_low_f32(t23.val[0]));
  const float32x4_t c1 =
      vcombine_f32(vget_low_f32(t01.val[1]), vget_low_f32(t23.val[1]));
  const float32x4_t c2 =
      vcombine_f32(vget_high_f32(t01.val[0]), vget_high_f32(t23.val[0]));
  const float32x4_t c3 =
      vcombine_f32(vget_high_f32(t01.val[1]), vget_high_f32(t23.val[1]));
  vst1q_f32(dst, c0);
  vst1q_f32(dst + dst_stride, c1);
  vst1q_f32(dst + 2 * dst_stride, c2);
  vst1q_f32(dst + 3 * dst_stride, c3);
}
#endif

#if defined(VF_SIMD_SSE2) || defined(VF_SIMD_NEON)
// Four 4x4 register-transposed quads per tile: 8x8 (two cache lines per
// row) keeps the strided side of the tile hot while the quads shuffle.
struct QuadTile {
  static void transpose_8x8(const float* src, int src_stride, float* dst,
                            int dst_stride) {
    transpose_4x4(src, src_stride, dst, dst_stride);
    transpose_4x4(src + 4, src_stride, dst + 4 * dst_stride, dst_stride);
    transpose_4x4(src + 4 * src_stride, src_stride, dst + 4, dst_stride);
    transpose_4x4(src + 4 * src_stride + 4, src_stride, dst + 4 * dst_stride + 4,
                  dst_stride);
  }
};

void transpose_quads(const float* src, int rows, int cols, int src_stride,
                     float* dst, int dst_stride) {
  transpose_tiles<QuadTile>(src, rows, cols, src_stride, dst, dst_stride);
}
#endif

void transpose_portable(const float* src, int rows, int cols, int src_stride,
                        float* dst, int dst_stride) {
  transpose_tiles<PortableTile>(src, rows, cols, src_stride, dst, dst_stride);
}

#if defined(VF_LANES_AVX2)
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif
// One 8x8 tile in eight __m256 registers: unpack pairs of rows, shuffle
// the pairs into 4-row quads within each 128-bit half, then swap halves.
struct Avx2Tile {
  static void transpose_8x8(const float* src, int src_stride, float* dst,
                            int dst_stride) {
    __m256 r[8];
    for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * src_stride);
    __m256 t[8];
    for (int i = 0; i < 4; ++i) {
      t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
      t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    __m256 u[8];
    for (int h = 0; h < 2; ++h) {  // rows 0-3, rows 4-7
      const __m256* q = t + 4 * h;
      u[4 * h] = _mm256_shuffle_ps(q[0], q[2], _MM_SHUFFLE(1, 0, 1, 0));
      u[4 * h + 1] = _mm256_shuffle_ps(q[0], q[2], _MM_SHUFFLE(3, 2, 3, 2));
      u[4 * h + 2] = _mm256_shuffle_ps(q[1], q[3], _MM_SHUFFLE(1, 0, 1, 0));
      u[4 * h + 3] = _mm256_shuffle_ps(q[1], q[3], _MM_SHUFFLE(3, 2, 3, 2));
    }
    for (int i = 0; i < 4; ++i) {
      _mm256_storeu_ps(dst + i * dst_stride,
                       _mm256_permute2f128_ps(u[i], u[4 + i], 0x20));
      _mm256_storeu_ps(dst + (4 + i) * dst_stride,
                       _mm256_permute2f128_ps(u[i], u[4 + i], 0x31));
    }
  }
};

void transpose_avx2(const float* src, int rows, int cols, int src_stride,
                    float* dst, int dst_stride) {
  transpose_tiles<Avx2Tile>(src, rows, cols, src_stride, dst, dst_stride);
}
#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif
#endif

}  // namespace

const TransposeVariant* transpose_variants(int* count) {
  static const TransposeVariant variants[] = {
      {"portable", true, transpose_portable},
#if defined(VF_SIMD_SSE2)
      {"sse2", true, transpose_quads},
#elif defined(VF_SIMD_NEON)
      {"neon", true, transpose_quads},
#endif
#if defined(VF_LANES_AVX2)
      {"avx2", host_has_avx2(), transpose_avx2},
#endif
  };
  *count = static_cast<int>(sizeof(variants) / sizeof(variants[0]));
  return variants;
}

void transpose_f32(const float* src, int rows, int cols, int src_stride,
                   float* dst, int dst_stride) {
  static const decltype(&transpose_f32) best =
      last_runnable(transpose_variants).transpose;
  best(src, rows, cols, src_stride, dst, dst_stride);
}

}  // namespace vf::simd
