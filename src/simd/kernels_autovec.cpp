// The *_autovec kernel flavours, isolated in their own translation unit so
// tests/check_autovec.cmake can recompile exactly this file with the
// compiler's vectorization report (-fopt-info-vec-optimized on GCC,
// -Rpass=loop-vectorize on Clang) and assert that every hot loop below
// actually vectorized. Keep this TU free of code whose loops are not meant
// to vectorize, or the assertion loses its teeth.
//
// Numerics contract (tests/test_kernels.cpp): each kernel accumulates in the
// same tap-ascending order as its scalar reference, so results are within
// 1 ulp (identical when the compiler does not contract mul+add into FMA).
#include "src/simd/kernels.h"

#include <cmath>
#include <vector>

namespace vf::simd {

void dual_corr_decimate2_autovec(const float* x, int out_len, const float* lp,
                                 const float* hp, int taps, float* lo, float* hi) {
  // Tap-outer / output-inner loop order: unit-stride writes over lo/hi let the
  // compiler emit packed FMAs without any manual blocking.
  for (int i = 0; i < out_len; ++i) {
    lo[i] = 0.0f;
    hi[i] = 0.0f;
  }
  for (int t = 0; t < taps; ++t) {
    const float cl = lp[t];
    const float ch = hp[t];
    const float* xt = x + t;
    for (int i = 0; i < out_len; ++i) {
      lo[i] += cl * xt[2 * i];
      hi[i] += ch * xt[2 * i];
    }
  }
}

void dual_corr_decimate2_ileave_autovec(const float* x, int pairs, const float* ca,
                                        const float* cb, int taps, float* out) {
  for (int k = 0; k < 2 * pairs; ++k) out[k] = 0.0f;
  for (int t = 0; t < taps; ++t) {
    const float fa = ca[t];
    const float fb = cb[t];
    const float* xt = x + t;
    for (int k = 0; k < pairs; ++k) {
      out[2 * k] += fa * xt[2 * k];
      out[2 * k + 1] += fb * xt[2 * k];
    }
  }
}

void complex_magnitude_autovec(const float* re, const float* im, int n, float* mag) {
  // Vectorizes to packed sqrt when math-errno is off (vf_core builds with
  // -fno-math-errno; sqrt of a sum of squares cannot go negative anyway).
  for (int i = 0; i < n; ++i) {
    mag[i] = std::sqrt(re[i] * re[i] + im[i] * im[i]);
  }
}

void select_by_magnitude_autovec(const float* a_re, const float* a_im,
                                 const float* b_re, const float* b_im,
                                 const float* mag_a, const float* mag_b, int n,
                                 float* out_re, float* out_im) {
  // One output stream per loop, with both candidate values loaded into
  // locals unconditionally: the ternary is then a pure register select
  // (VEC_COND), which the vectorizer lowers to compare + blend even at the
  // SSE2 baseline (conditional *loads* would need masked-load support and
  // defeat if-conversion). The output is one of the inputs verbatim
  // (bit-exact, unlike an arithmetic a*t + b*(1-t) blend, which loses
  // signed zeros).
  for (int i = 0; i < n; ++i) {
    const float ar = a_re[i];
    const float br = b_re[i];
    out_re[i] = mag_a[i] >= mag_b[i] ? ar : br;
  }
  for (int i = 0; i < n; ++i) {
    const float ai = a_im[i];
    const float bi = b_im[i];
    out_im[i] = mag_a[i] >= mag_b[i] ? ai : bi;
  }
}

void average_autovec(const float* a, const float* b, int n, float* out) {
  for (int i = 0; i < n; ++i) out[i] = 0.5f * (a[i] + b[i]);
}

// --- lane-interleaved fused kernels (kernels.h) -------------------------------
//
// Lane-innermost loops over local accumulator rows: the lane loop has no
// loop-carried dependence, so it vectorizes across image columns while each
// lane keeps the scalar tap order.

namespace {

thread_local std::vector<float> g_ext_scratch;

}  // namespace

void analyze_mag_ml_autovec(const float* x_re, const float* x_im, int x_stride,
                            int nlines, int out_len, const float* lp_re,
                            const float* hp_re, const float* lp_im,
                            const float* hp_im, int taps, float* lo_re,
                            float* hi_re, float* lo_im, float* hi_im,
                            float* mag_lo, float* mag_hi, int out_stride) {
  for (int i = 0; i < out_len; ++i) {
    float lr[kMaxLinesPerCall] = {}, hr[kMaxLinesPerCall] = {};
    float li[kMaxLinesPerCall] = {}, hi[kMaxLinesPerCall] = {};
    for (int t = 0; t < taps; ++t) {
      const std::size_t row = static_cast<std::size_t>(2 * i + t) * x_stride;
      const float* xr = x_re + row;
      const float* xi = x_im + row;
      const float c_lr = lp_re[t], c_hr = hp_re[t];
      const float c_li = lp_im[t], c_hi = hp_im[t];
      for (int l = 0; l < nlines; ++l) {
        lr[l] += c_lr * xr[l];
        hr[l] += c_hr * xr[l];
        li[l] += c_li * xi[l];
        hi[l] += c_hi * xi[l];
      }
    }
    const std::size_t o = static_cast<std::size_t>(i) * out_stride;
    for (int l = 0; l < nlines; ++l) {
      lo_re[o + l] = lr[l];
      hi_re[o + l] = hr[l];
      lo_im[o + l] = li[l];
      hi_im[o + l] = hi[l];
    }
    if (mag_lo != nullptr) {
      for (int l = 0; l < nlines; ++l) {
        mag_lo[o + l] = std::sqrt(lr[l] * lr[l] + li[l] * li[l]);
      }
    }
    if (mag_hi != nullptr) {
      for (int l = 0; l < nlines; ++l) {
        mag_hi[o + l] = std::sqrt(hr[l] * hr[l] + hi[l] * hi[l]);
      }
    }
  }
}

void select_synth_ml_autovec(const float* lo_a, const float* lo_b,
                             const float* mlo_a, const float* mlo_b,
                             const float* hi_a, const float* hi_b,
                             const float* mhi_a, const float* mhi_b,
                             int in_stride, int nlines, int pairs,
                             const float* ca, const float* cb, int taps,
                             int synth_offset, float* out, int out_stride) {
  constexpr int kLanes = kMaxLinesPerCall;
  const int n = 2 * pairs;
  if (n <= 0) return;
  const std::size_t ext_size = static_cast<std::size_t>(n + taps) * kLanes;
  if (g_ext_scratch.size() < ext_size) g_ext_scratch.resize(ext_size);
  float* ext = g_ext_scratch.data();
  int src = ((-synth_offset) % n + n) % n;
  for (int k = 0; k < n + taps; ++k) {
    const std::size_t row = static_cast<std::size_t>(src >> 1) * in_stride;
    const bool odd = (src & 1) != 0;
    const float* a = (odd ? hi_a : lo_a) + row;
    const float* b = odd ? hi_b : lo_b;
    float* e = ext + static_cast<std::size_t>(k) * kLanes;
    if (b == nullptr) {
      for (int l = 0; l < nlines; ++l) e[l] = a[l];
    } else {
      // Unconditional loads + ternary: a register select (compare + blend),
      // and the output is one input verbatim, so sign bits survive.
      const float* ma = (odd ? mhi_a : mlo_a) + row;
      const float* mb = (odd ? mhi_b : mlo_b) + row;
      b += row;
      for (int l = 0; l < nlines; ++l) {
        const float av = a[l];
        const float bv = b[l];
        e[l] = ma[l] >= mb[l] ? av : bv;
      }
    }
    if (++src == n) src = 0;
  }
  for (int k = 0; k < pairs; ++k) {
    float acc_a[kLanes] = {}, acc_b[kLanes] = {};
    for (int t = 0; t < taps; ++t) {
      const float* e = ext + static_cast<std::size_t>(2 * k + t) * kLanes;
      const float fa = ca[t];
      const float fb = cb[t];
      for (int l = 0; l < nlines; ++l) {
        acc_a[l] += fa * e[l];
        acc_b[l] += fb * e[l];
      }
    }
    float* o = out + static_cast<std::size_t>(2 * k) * out_stride;
    for (int l = 0; l < nlines; ++l) {
      o[l] = acc_a[l];
      o[out_stride + l] = acc_b[l];
    }
  }
}

}  // namespace vf::simd
