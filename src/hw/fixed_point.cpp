#include "src/hw/fixed_point.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace vf::hw {

std::string FixedPointFormat::name() const {
  return "Q" + std::to_string(integer_bits()) + "." + std::to_string(frac_bits);
}

double FixedPointFormat::step() const { return std::ldexp(1.0, -frac_bits); }

double FixedPointFormat::max_value() const {
  return std::ldexp(1.0, integer_bits() - 1) - step();
}

double FixedPointFormat::min_value() const {
  return -std::ldexp(1.0, integer_bits() - 1);
}

double FixedPointFormat::quantize(double v) const {
  const double scaled = std::nearbyint(v / step());
  double q = scaled * step();
  if (q > max_value()) q = max_value();
  if (q < min_value()) q = min_value();
  return q;
}

namespace {

// Per-thread scratch for one quantized line plus its two coefficient
// arrays; grows to the longest line a thread has seen, then stays.
double* line_scratch(std::size_t n) {
  thread_local std::vector<double> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// The engine datapath over one quantized line: n output pairs, output i of
// the pair computed as Q(sum_t qa[t] * qx[2i + t]) in tap order (and qb into
// b), stored at a[i * step] / b[i * step]. Analysis writes (lo, hi) with
// step 1; synthesis writes the interleaved (out[2k], out[2k + 1]) with step 2.
void correlate(const FixedPointFormat& fmt, const double* qx, int n,
               const double* qa, const double* qb, int taps, float* a, float* b,
               std::size_t step) {
  for (int i = 0; i < n; ++i) {
    double acc_a = 0.0;
    double acc_b = 0.0;
    for (int t = 0; t < taps; ++t) {
      acc_a += qa[t] * qx[2 * i + t];
      acc_b += qb[t] * qx[2 * i + t];
    }
    a[i * step] = static_cast<float>(fmt.quantize(acc_a));
    b[i * step] = static_cast<float>(fmt.quantize(acc_b));
  }
}

// Quantizes the coefficient pair into the tail of a scratch whose first
// `len` doubles will hold the line; returns the scratch.
double* quantize_coeffs(const FixedPointFormat& fmt, int len, const float* ca,
                        const float* cb, int taps) {
  double* q = line_scratch(static_cast<std::size_t>(len) + 2 * taps);
  for (int t = 0; t < taps; ++t) {
    q[len + t] = fmt.quantize(ca[t]);
    q[len + taps + t] = fmt.quantize(cb[t]);
  }
  return q;
}

// One line, read at x[j * x_step] (1 = contiguous, out_stride = one lane of
// a lane-interleaved plane), written at lo/hi[i * o_step].
void analyze_line(const FixedPointFormat& fmt, const float* x, std::size_t x_step,
                  int out_len, const float* lp, const float* hp, int taps,
                  float* lo, float* hi, std::size_t o_step) {
  const int len = 2 * out_len + taps;
  double* q = quantize_coeffs(fmt, len, lp, hp, taps);
  for (int j = 0; j < len; ++j) q[j] = fmt.quantize(x[j * x_step]);
  correlate(fmt, q, out_len, q + len, q + len + taps, taps, lo, hi, o_step);
}

void synthesize_line(const FixedPointFormat& fmt, const float* x, int pairs,
                     const float* ca, const float* cb, int taps, float* out) {
  const int len = 2 * pairs + taps;
  double* q = quantize_coeffs(fmt, len, ca, cb, taps);
  for (int j = 0; j < len; ++j) q[j] = fmt.quantize(x[j]);
  correlate(fmt, q, pairs, q + len, q + len + taps, taps, out, out + 1, 2);
}

// The KernelSet entries for one format. A class template so every format
// gets its own plain function pointers (KernelSet has no context pointer).
template <int kTotal, int kFrac>
struct FixedKernels {
  static constexpr FixedPointFormat kFmt{kTotal, kFrac};

  static void analyze(const float* x, int out_len, const float* lp, const float* hp,
                      int taps, float* lo, float* hi) {
    analyze_line(kFmt, x, 1, out_len, lp, hp, taps, lo, hi, 1);
  }
  static void synthesize(const float* x, int pairs, const float* ca, const float* cb,
                         int taps, float* out) {
    synthesize_line(kFmt, x, pairs, ca, cb, taps, out);
  }
  static void analyze_ml(const float* x, int x_stride, int nlines, int out_len,
                         const float* lp, const float* hp, int taps, float* lo,
                         float* hi, int out_stride) {
    for (int l = 0; l < nlines; ++l) {
      analyze(x + l * x_stride, out_len, lp, hp, taps, lo + l * out_stride,
              hi + l * out_stride);
    }
  }
  static void synthesize_ml(const float* x, int x_stride, int nlines, int pairs,
                            const float* ca, const float* cb, int taps, float* out,
                            int out_stride) {
    for (int l = 0; l < nlines; ++l) {
      synthesize(x + l * x_stride, pairs, ca, cb, taps, out + l * out_stride);
    }
  }
  // Lane l of the interleaved planes is one column line: filtered in place
  // at the plane stride, magnitudes from the quantized values just stored.
  static void analyze_mag_ml(const float* x_re, const float* x_im, int x_stride,
                             int nlines, int out_len, const float* lp_re,
                             const float* hp_re, const float* lp_im,
                             const float* hp_im, int taps, float* lo_re,
                             float* hi_re, float* lo_im, float* hi_im,
                             float* mag_lo, float* mag_hi, int out_stride) {
    const std::size_t xs = static_cast<std::size_t>(x_stride);
    const std::size_t os = static_cast<std::size_t>(out_stride);
    for (int l = 0; l < nlines; ++l) {
      analyze_line(kFmt, x_re + l, xs, out_len, lp_re, hp_re, taps, lo_re + l,
                   hi_re + l, os);
      analyze_line(kFmt, x_im + l, xs, out_len, lp_im, hp_im, taps, lo_im + l,
                   hi_im + l, os);
    }
    if (mag_lo != nullptr) {
      simd::complex_magnitude_ml_scalar(lo_re, lo_im, out_len, nlines, out_stride,
                                        mag_lo, out_stride);
    }
    if (mag_hi != nullptr) {
      simd::complex_magnitude_ml_scalar(hi_re, hi_im, out_len, nlines, out_stride,
                                        mag_hi, out_stride);
    }
  }
  // Per lane: select (when *_b is non-null) and interleave into the periodic
  // synthesis extension — the scalar kernel's wrap fill — then the datapath.
  static void select_synth_ml(const float* lo_a, const float* lo_b,
                              const float* mlo_a, const float* mlo_b,
                              const float* hi_a, const float* hi_b,
                              const float* mhi_a, const float* mhi_b, int in_stride,
                              int nlines, int pairs, const float* ca,
                              const float* cb, int taps, int synth_offset,
                              float* out, int out_stride) {
    const int n = 2 * pairs;
    if (n <= 0) return;
    const int len = n + taps;
    const std::size_t os = static_cast<std::size_t>(out_stride);
    double* q = quantize_coeffs(kFmt, len, ca, cb, taps);
    for (int l = 0; l < nlines; ++l) {
      int src = ((-synth_offset) % n + n) % n;
      for (int k = 0; k < len; ++k) {
        const std::size_t j = static_cast<std::size_t>(src >> 1) * in_stride + l;
        const bool odd = (src & 1) != 0;
        const float* a = odd ? hi_a : lo_a;
        const float* b = odd ? hi_b : lo_b;
        const float* ma = odd ? mhi_a : mlo_a;
        const float* mb = odd ? mhi_b : mlo_b;
        q[k] = kFmt.quantize(b == nullptr || ma[j] >= mb[j] ? a[j] : b[j]);
        if (++src == n) src = 0;
      }
      correlate(kFmt, q, pairs, q + len, q + len + taps, taps, out + l,
                out + os + l, 2 * os);
    }
  }

  static const simd::KernelSet& set(const char* name) {
    static const simd::KernelSet s = {
        name,
        analyze,
        synthesize,
        simd::complex_magnitude_scalar,
        simd::select_by_magnitude_scalar,
        simd::average_scalar,
        analyze_ml,
        synthesize_ml,
        simd::complex_magnitude_ml_scalar,
        simd::select_by_magnitude_ml_scalar,
        analyze_mag_ml,
        select_synth_ml,
    };
    return s;
  }
};

}  // namespace

const simd::KernelSet& fixed_point_kernels(const FixedPointFormat& fmt) {
  const int t = fmt.total_bits, f = fmt.frac_bits;
  if (t == 32 && f == 24) return FixedKernels<32, 24>::set("fixed Q8.24");
  if (t == 24 && f == 18) return FixedKernels<24, 18>::set("fixed Q6.18");
  if (t == 18 && f == 15) return FixedKernels<18, 15>::set("fixed Q3.15");
  if (t == 16 && f == 14) return FixedKernels<16, 14>::set("fixed Q2.14");
  if (t == 16 && f == 12) return FixedKernels<16, 12>::set("fixed Q4.12");
  if (t == 12 && f == 10) return FixedKernels<12, 10>::set("fixed Q2.10");
  std::fprintf(stderr,
               "fatal: no fixed-point KernelSet for %s (%d bits; supported: "
               "Q8.24, Q6.18, Q3.15, Q2.14, Q4.12, Q2.10)\n",
               fmt.name().c_str(), t);
  std::abort();
}

}  // namespace vf::hw
