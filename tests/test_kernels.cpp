// Flavour-parity contract for all five kernel families (analyze, synthesize,
// magnitude, select, average):
//
//   *_simd     bit-identical to *_scalar (0 ulp, signed zeros included) —
//              the dispatch default relies on this;
//   *_autovec  within 1 ulp of *_scalar (the compiler may contract mul+add
//              into FMA, which changes rounding at most 1 ulp here).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/hw/fixed_point.h"
#include "src/simd/dispatch.h"

namespace {

using namespace vf;

std::vector<float> randv(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.next_float(-1.0f, 1.0f);
  return v;
}

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// Monotone map of float ordering onto integers (+0.0 and -0.0 coincide).
long long float_ordered(float f) {
  const std::uint32_t u = float_bits(f);
  return (u & 0x80000000u) ? -static_cast<long long>(u & 0x7fffffffu)
                           : static_cast<long long>(u);
}

long long ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) == std::isnan(b) ? 0 : 1u << 30;
  const long long d = float_ordered(a) - float_ordered(b);
  return d < 0 ? -d : d;
}

void expect_bit_identical(const std::vector<float>& ref, const std::vector<float>& got,
                          const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(float_bits(ref[i]), float_bits(got[i]))
        << what << " i=" << i << " ref=" << ref[i] << " got=" << got[i];
  }
}

void expect_within_1_ulp(const std::vector<float>& ref, const std::vector<float>& got,
                         const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_LE(ulp_distance(ref[i], got[i]), 1)
        << what << " i=" << i << " ref=" << ref[i] << " got=" << got[i];
  }
}

class KernelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquivalence, DualCorrDecimate2) {
  const int out_len = GetParam();
  for (int taps : {5, 9, 14, 16}) {
    const auto x = randv(2 * out_len + taps, 1);
    const auto lp = randv(taps, 2);
    const auto hp = randv(taps, 3);
    std::vector<float> lo_s(out_len), hi_s(out_len), lo_v(out_len), hi_v(out_len);
    std::vector<float> lo_a(out_len), hi_a(out_len);
    simd::dual_corr_decimate2_scalar(x.data(), out_len, lp.data(), hp.data(), taps,
                                     lo_s.data(), hi_s.data());
    simd::dual_corr_decimate2_simd(x.data(), out_len, lp.data(), hp.data(), taps,
                                   lo_v.data(), hi_v.data());
    simd::dual_corr_decimate2_autovec(x.data(), out_len, lp.data(), hp.data(), taps,
                                      lo_a.data(), hi_a.data());
    expect_bit_identical(lo_s, lo_v, "analyze lo simd");
    expect_bit_identical(hi_s, hi_v, "analyze hi simd");
    expect_within_1_ulp(lo_s, lo_a, "analyze lo autovec");
    expect_within_1_ulp(hi_s, hi_a, "analyze hi autovec");
  }
}

TEST_P(KernelEquivalence, DualCorrDecimate2Ileave) {
  const int pairs = GetParam();
  for (int taps : {7, 16, 28}) {
    const auto x = randv(2 * pairs + taps, 4);
    const auto ca = randv(taps, 5);
    const auto cb = randv(taps, 6);
    std::vector<float> out_s(2 * pairs), out_v(2 * pairs), out_a(2 * pairs);
    simd::dual_corr_decimate2_ileave_scalar(x.data(), pairs, ca.data(), cb.data(),
                                            taps, out_s.data());
    simd::dual_corr_decimate2_ileave_simd(x.data(), pairs, ca.data(), cb.data(), taps,
                                          out_v.data());
    simd::dual_corr_decimate2_ileave_autovec(x.data(), pairs, ca.data(), cb.data(),
                                             taps, out_a.data());
    expect_bit_identical(out_s, out_v, "synthesize simd");
    expect_within_1_ulp(out_s, out_a, "synthesize autovec");
  }
}

TEST_P(KernelEquivalence, ComplexMagnitude) {
  const int n = GetParam();
  const auto re = randv(n, 7);
  const auto im = randv(n, 8);
  std::vector<float> mag_s(n), mag_v(n), mag_a(n);
  simd::complex_magnitude_scalar(re.data(), im.data(), n, mag_s.data());
  simd::complex_magnitude_simd(re.data(), im.data(), n, mag_v.data());
  simd::complex_magnitude_autovec(re.data(), im.data(), n, mag_a.data());
  expect_bit_identical(mag_s, mag_v, "magnitude simd");
  expect_within_1_ulp(mag_s, mag_a, "magnitude autovec");
  for (int i = 0; i < n; ++i) EXPECT_GE(mag_s[i], 0.0f);
}

TEST_P(KernelEquivalence, SelectByMagnitude) {
  const int n = GetParam();
  const auto a_re = randv(n, 9), a_im = randv(n, 10);
  const auto b_re = randv(n, 11), b_im = randv(n, 12);
  std::vector<float> mag_a(n), mag_b(n);
  simd::complex_magnitude_scalar(a_re.data(), a_im.data(), n, mag_a.data());
  simd::complex_magnitude_scalar(b_re.data(), b_im.data(), n, mag_b.data());
  std::vector<float> re_s(n), im_s(n), re_v(n), im_v(n), re_a(n), im_a(n);
  simd::select_by_magnitude_scalar(a_re.data(), a_im.data(), b_re.data(), b_im.data(),
                                   mag_a.data(), mag_b.data(), n, re_s.data(),
                                   im_s.data());
  simd::select_by_magnitude_simd(a_re.data(), a_im.data(), b_re.data(), b_im.data(),
                                 mag_a.data(), mag_b.data(), n, re_v.data(),
                                 im_v.data());
  simd::select_by_magnitude_autovec(a_re.data(), a_im.data(), b_re.data(),
                                    b_im.data(), mag_a.data(), mag_b.data(), n,
                                    re_a.data(), im_a.data());
  expect_bit_identical(re_s, re_v, "select re simd");
  expect_bit_identical(im_s, im_v, "select im simd");
  // Selection copies an input verbatim, so even autovec must be bit-exact.
  expect_bit_identical(re_s, re_a, "select re autovec");
  expect_bit_identical(im_s, im_a, "select im autovec");
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(re_s[i] == a_re[i] || re_s[i] == b_re[i]) << i;
  }
}

TEST_P(KernelEquivalence, Average) {
  const int n = GetParam();
  const auto a = randv(n, 13);
  const auto b = randv(n, 14);
  std::vector<float> out_s(n), out_v(n), out_a(n);
  simd::average_scalar(a.data(), b.data(), n, out_s.data());
  simd::average_simd(a.data(), b.data(), n, out_v.data());
  simd::average_autovec(a.data(), b.data(), n, out_a.data());
  expect_bit_identical(out_s, out_v, "average simd");
  // 0.5f * (a + b) has no mul+add to contract: exact in every flavour.
  expect_bit_identical(out_s, out_a, "average autovec");
  for (int i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(out_s[i], 0.5f * (a[i] + b[i])) << i;
  }
}

// --- multi-line kernels ------------------------------------------------------
//
// The _ml contract (kernels.h): each line of a multi-line call produces the
// same bits as one single-line call of the same flavour on that line. That
// pins the per-line arithmetic order, so the flavour guarantees above carry
// over unchanged: _ml_simd is 0 ulp from _ml_scalar, _ml_autovec within 1 ulp
// (select stays bit-exact — it only copies inputs).

class MultiLineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MultiLineEquivalence, AnalyzeMl) {
  const int out_len = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    for (int taps : {5, 14}) {
      const int x_stride = 2 * out_len + taps + 3;  // over-stride: gaps allowed
      const auto x = randv(nlines * x_stride, 21);
      const auto lp = randv(taps, 22);
      const auto hp = randv(taps, 23);
      const int out_stride = out_len + 2;
      const int out_total = nlines * out_stride;
      std::vector<float> lo_ref(out_total, 0.0f), hi_ref(out_total, 0.0f);
      for (int l = 0; l < nlines; ++l) {
        simd::dual_corr_decimate2_scalar(x.data() + l * x_stride, out_len,
                                         lp.data(), hp.data(), taps,
                                         lo_ref.data() + l * out_stride,
                                         hi_ref.data() + l * out_stride);
      }
      std::vector<float> lo_s(out_total, 0.0f), hi_s(out_total, 0.0f);
      std::vector<float> lo_v(out_total, 0.0f), hi_v(out_total, 0.0f);
      std::vector<float> lo_a(out_total, 0.0f), hi_a(out_total, 0.0f);
      simd::dual_corr_decimate2_ml_scalar(x.data(), x_stride, nlines, out_len,
                                          lp.data(), hp.data(), taps, lo_s.data(),
                                          hi_s.data(), out_stride);
      simd::dual_corr_decimate2_ml_simd(x.data(), x_stride, nlines, out_len,
                                        lp.data(), hp.data(), taps, lo_v.data(),
                                        hi_v.data(), out_stride);
      simd::dual_corr_decimate2_ml_autovec(x.data(), x_stride, nlines, out_len,
                                           lp.data(), hp.data(), taps, lo_a.data(),
                                           hi_a.data(), out_stride);
      expect_bit_identical(lo_ref, lo_s, "analyze_ml lo scalar vs per-line");
      expect_bit_identical(hi_ref, hi_s, "analyze_ml hi scalar vs per-line");
      expect_bit_identical(lo_ref, lo_v, "analyze_ml lo simd");
      expect_bit_identical(hi_ref, hi_v, "analyze_ml hi simd");
      expect_within_1_ulp(lo_ref, lo_a, "analyze_ml lo autovec");
      expect_within_1_ulp(hi_ref, hi_a, "analyze_ml hi autovec");
    }
  }
}

TEST_P(MultiLineEquivalence, SynthesizeMl) {
  const int pairs = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    const int taps = 16;
    const int x_stride = 2 * pairs + taps + 1;
    const auto x = randv(nlines * x_stride, 24);
    const auto ca = randv(taps, 25);
    const auto cb = randv(taps, 26);
    const int out_stride = 2 * pairs + 4;
    const int out_total = nlines * out_stride;
    std::vector<float> ref(out_total, 0.0f);
    for (int l = 0; l < nlines; ++l) {
      simd::dual_corr_decimate2_ileave_scalar(x.data() + l * x_stride, pairs,
                                              ca.data(), cb.data(), taps,
                                              ref.data() + l * out_stride);
    }
    std::vector<float> out_s(out_total, 0.0f), out_v(out_total, 0.0f),
        out_a(out_total, 0.0f);
    simd::dual_corr_decimate2_ileave_ml_scalar(x.data(), x_stride, nlines, pairs,
                                               ca.data(), cb.data(), taps,
                                               out_s.data(), out_stride);
    simd::dual_corr_decimate2_ileave_ml_simd(x.data(), x_stride, nlines, pairs,
                                             ca.data(), cb.data(), taps,
                                             out_v.data(), out_stride);
    simd::dual_corr_decimate2_ileave_ml_autovec(x.data(), x_stride, nlines, pairs,
                                                ca.data(), cb.data(), taps,
                                                out_a.data(), out_stride);
    expect_bit_identical(ref, out_s, "synthesize_ml scalar vs per-line");
    expect_bit_identical(ref, out_v, "synthesize_ml simd");
    expect_within_1_ulp(ref, out_a, "synthesize_ml autovec");
  }
}

TEST_P(MultiLineEquivalence, MagnitudeMl) {
  const int len = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    const int in_stride = len + 5;
    const auto re = randv(nlines * in_stride, 27);
    const auto im = randv(nlines * in_stride, 28);
    const int out_stride = len + 1;
    const int out_total = nlines * out_stride;
    std::vector<float> ref(out_total, 0.0f);
    for (int l = 0; l < nlines; ++l) {
      simd::complex_magnitude_scalar(re.data() + l * in_stride,
                                     im.data() + l * in_stride, len,
                                     ref.data() + l * out_stride);
    }
    std::vector<float> mag_s(out_total, 0.0f), mag_v(out_total, 0.0f),
        mag_a(out_total, 0.0f);
    simd::complex_magnitude_ml_scalar(re.data(), im.data(), nlines, len, in_stride,
                                      mag_s.data(), out_stride);
    simd::complex_magnitude_ml_simd(re.data(), im.data(), nlines, len, in_stride,
                                    mag_v.data(), out_stride);
    simd::complex_magnitude_ml_autovec(re.data(), im.data(), nlines, len, in_stride,
                                       mag_a.data(), out_stride);
    expect_bit_identical(ref, mag_s, "magnitude_ml scalar vs per-line");
    expect_bit_identical(ref, mag_v, "magnitude_ml simd");
    expect_within_1_ulp(ref, mag_a, "magnitude_ml autovec");
  }
}

TEST_P(MultiLineEquivalence, SelectMl) {
  const int len = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    const int in_stride = len + 2;
    const int total = nlines * in_stride;
    const auto a_re = randv(total, 29), a_im = randv(total, 30);
    const auto b_re = randv(total, 31), b_im = randv(total, 32);
    std::vector<float> mag_a(total, 0.0f), mag_b(total, 0.0f);
    simd::complex_magnitude_scalar(a_re.data(), a_im.data(), total, mag_a.data());
    simd::complex_magnitude_scalar(b_re.data(), b_im.data(), total, mag_b.data());
    const int out_stride = len + 3;
    const int out_total = nlines * out_stride;
    std::vector<float> re_ref(out_total, 0.0f), im_ref(out_total, 0.0f);
    for (int l = 0; l < nlines; ++l) {
      simd::select_by_magnitude_scalar(
          a_re.data() + l * in_stride, a_im.data() + l * in_stride,
          b_re.data() + l * in_stride, b_im.data() + l * in_stride,
          mag_a.data() + l * in_stride, mag_b.data() + l * in_stride, len,
          re_ref.data() + l * out_stride, im_ref.data() + l * out_stride);
    }
    for (const auto* flavour : {"scalar", "simd", "autovec"}) {
      std::vector<float> re(out_total, 0.0f), im(out_total, 0.0f);
      auto fn = std::string(flavour) == "scalar" ? simd::select_by_magnitude_ml_scalar
                : std::string(flavour) == "simd" ? simd::select_by_magnitude_ml_simd
                                                 : simd::select_by_magnitude_ml_autovec;
      fn(a_re.data(), a_im.data(), b_re.data(), b_im.data(), mag_a.data(),
         mag_b.data(), nlines, len, in_stride, re.data(), im.data(), out_stride);
      // Selection copies inputs verbatim: bit-exact in every flavour.
      expect_bit_identical(re_ref, re, (std::string("select_ml re ") + flavour).c_str());
      expect_bit_identical(im_ref, im, (std::string("select_ml im ") + flavour).c_str());
    }
  }
}

TEST_P(MultiLineEquivalence, SelectHalf) {
  const int n = GetParam();
  const auto a = randv(n, 33), b = randv(n, 34);
  const auto mag_a = randv(n, 35), mag_b = randv(n, 36);
  std::vector<float> out(n), re(n), im(n);
  simd::select_half_scalar(a.data(), b.data(), mag_a.data(), mag_b.data(), n,
                           out.data());
  // Selection copies an input verbatim: each element must be the re half of
  // the two-plane select on the same comparison.
  simd::select_by_magnitude_scalar(a.data(), b.data(), b.data(), a.data(),
                                   mag_a.data(), mag_b.data(), n, re.data(),
                                   im.data());
  expect_bit_identical(re, out, "select_half vs select_by_magnitude");
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(float_bits(out[i]), float_bits(mag_a[i] >= mag_b[i] ? a[i] : b[i]))
        << i;
  }
}

// --- lane-interleaved fused kernels ------------------------------------------
//
// Contract (kernels.h): sample j of lane l sits at x[j * stride + l], and
// only the nlines live lanes are read or stored. The oracle gathers each lane
// into a contiguous line and runs the single-line scalar kernels on it —
// dual_corr_decimate2 + complex_magnitude for analyze_mag_ml, select_half +
// the documented wrap + dual_corr_decimate2_ileave for select_synth_ml. The
// scalar flavour, the simd dispatch and every compiled instantiation
// (portable, sse2/neon, avx2 where the CPU has it) must match it with 0 ulp;
// autovec within 1 ulp.
//
// Inputs are sized to end exactly at the last live lane, so a full-width
// load past it trips AddressSanitizer; outputs start as a NaN sentinel and
// every non-live lane must still hold it.

using AnalyzeMagFn = decltype(&simd::analyze_mag_ml_scalar);
using SelectSynthFn = decltype(&simd::select_synth_ml_scalar);

struct FusedFlavour {
  std::string name;
  AnalyzeMagFn analyze_mag;
  SelectSynthFn select_synth;
  bool exact;
};

std::vector<FusedFlavour> fused_flavours() {
  std::vector<FusedFlavour> out = {
      {"scalar", simd::analyze_mag_ml_scalar, simd::select_synth_ml_scalar, true},
      {"simd", simd::analyze_mag_ml_simd, simd::select_synth_ml_simd, true},
      {"autovec", simd::analyze_mag_ml_autovec, simd::select_synth_ml_autovec,
       false},
  };
  int n = 0;
  const simd::LaneKernelVariant* v = simd::lane_kernel_variants(&n);
  for (int i = 0; i < n; ++i) {
    if (v[i].runnable) {
      out.push_back({std::string("simd/") + v[i].isa, v[i].analyze_mag_ml,
                     v[i].select_synth_ml, true});
    }
  }
  return out;
}

constexpr float kSentinel = std::numeric_limits<float>::quiet_NaN();

// A lane-interleaved plane of `rows` rows: lane l of row j at j*stride + l,
// with the buffer ending right after the last live lane.
std::vector<float> lane_plane(int rows, int stride, int nlines, std::uint64_t seed) {
  return randv((rows - 1) * stride + nlines, seed);
}

std::vector<float> gather_lane(const float* plane, int rows, int stride, int l) {
  std::vector<float> line(static_cast<std::size_t>(rows));
  for (int j = 0; j < rows; ++j) {
    line[static_cast<std::size_t>(j)] = plane[static_cast<std::size_t>(j) * stride + l];
  }
  return line;
}

// Compares the live lanes of `got` with the oracle lines and checks that
// every other element still holds the sentinel.
void expect_lanes(const std::vector<std::vector<float>>& ref, int rows,
                  int stride, const std::vector<float>& got, bool exact,
                  const std::string& what) {
  const int nlines = static_cast<int>(ref.size());
  std::vector<char> live(got.size(), 0);
  for (int l = 0; l < nlines; ++l) {
    std::vector<float> lane(static_cast<std::size_t>(rows));
    for (int j = 0; j < rows; ++j) {
      const std::size_t at = static_cast<std::size_t>(j) * stride + l;
      lane[static_cast<std::size_t>(j)] = got[at];
      live[at] = 1;
    }
    const std::string label = what + " lane " + std::to_string(l);
    if (exact) {
      expect_bit_identical(ref[static_cast<std::size_t>(l)], lane, label.c_str());
    } else {
      expect_within_1_ulp(ref[static_cast<std::size_t>(l)], lane, label.c_str());
    }
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!live[i]) {
      ASSERT_TRUE(std::isnan(got[i])) << what << " wrote a dead lane at " << i;
    }
  }
}

// The gather oracle runs the per-line entries of `oracle`: the scalar set for
// every float flavour; a fixed-point set (hw::fixed_point_kernels) is held
// to its own per-line analyze/synthesize, at 0 ulp.
const simd::KernelSet& fixed_set() { return hw::fixed_point_kernels({18, 15}); }
std::vector<FusedFlavour> fixed_flavour() {
  const simd::KernelSet& k = fixed_set();
  return {{k.name, k.analyze_mag_ml, k.select_synth_ml, true}};
}

// One analyze_mag_ml case against the oracle, in every flavour, with and
// without the magnitude outputs. With re_row/im_row >= 0, x_re and x_im
// alias one plane and start at those rows of it, the way the fused plan's
// row passes read both trees out of one slab.
void check_analyze_mag(int nlines, int out_len, int taps, int x_stride,
                       int out_stride,
                       const simd::KernelSet& oracle = simd::scalar_kernels(),
                       const std::vector<FusedFlavour>& flavours = fused_flavours(),
                       int re_row = -1, int im_row = -1) {
  const int rows = 2 * out_len + taps;
  const bool alias = re_row >= 0;
  const auto plane_re =
      lane_plane(rows + (alias ? std::max(re_row, im_row) : 0), x_stride, nlines,
                 40 + taps);
  const auto plane_im =
      alias ? std::vector<float>() : lane_plane(rows, x_stride, nlines, 41 + taps);
  const float* x_re = plane_re.data() + (alias ? re_row * x_stride : 0);
  const float* x_im =
      alias ? plane_re.data() + im_row * x_stride : plane_im.data();
  const auto lp_re = randv(taps, 42), hp_re = randv(taps, 43);
  const auto lp_im = randv(taps, 44), hp_im = randv(taps, 45);
  // ref[q][l]: q = lo_re, hi_re, lo_im, hi_im, mag_lo, mag_hi.
  std::vector<std::vector<float>> ref[6];
  for (auto& r : ref) r.assign(nlines, std::vector<float>(out_len));
  for (int l = 0; l < nlines; ++l) {
    const auto re = gather_lane(x_re, rows, x_stride, l);
    const auto im = gather_lane(x_im, rows, x_stride, l);
    oracle.analyze(re.data(), out_len, lp_re.data(), hp_re.data(), taps,
                   ref[0][l].data(), ref[1][l].data());
    oracle.analyze(im.data(), out_len, lp_im.data(), hp_im.data(), taps,
                   ref[2][l].data(), ref[3][l].data());
    oracle.magnitude(ref[0][l].data(), ref[2][l].data(), out_len, ref[4][l].data());
    oracle.magnitude(ref[1][l].data(), ref[3][l].data(), out_len, ref[5][l].data());
  }
  const char* names[6] = {"lo_re", "hi_re", "lo_im", "hi_im", "mag_lo", "mag_hi"};
  const std::size_t out_total = static_cast<std::size_t>(out_len) * out_stride;
  for (const FusedFlavour& fl : flavours) {
    for (const bool with_mag : {true, false}) {
      std::vector<float> out[6];
      for (auto& o : out) o.assign(out_total, kSentinel);
      fl.analyze_mag(x_re, x_im, x_stride, nlines, out_len,
                     lp_re.data(), hp_re.data(), lp_im.data(), hp_im.data(), taps,
                     out[0].data(), out[1].data(), out[2].data(), out[3].data(),
                     with_mag ? out[4].data() : nullptr,
                     with_mag ? out[5].data() : nullptr, out_stride);
      for (int q = 0; q < (with_mag ? 6 : 4); ++q) {
        expect_lanes(ref[q], out_len, out_stride, out[q], fl.exact,
                     "analyze_mag_ml " + fl.name + " " + names[q] + " nlines " +
                         std::to_string(nlines) + " out_len " +
                         std::to_string(out_len) + " taps " + std::to_string(taps) +
                         (alias ? " aliased" : ""));
      }
      if (!with_mag) {
        for (int q = 4; q < 6; ++q) {
          for (float v : out[q]) ASSERT_TRUE(std::isnan(v)) << "null mag written";
        }
      }
    }
  }
}

// One select_synth_ml case, fused (select by magnitude) or verbatim (null
// *_b), against the oracle in every flavour.
void check_select_synth(int nlines, int pairs, int taps, int synth_offset,
                        bool fuse_select, int in_stride, int out_stride,
                        const simd::KernelSet& oracle = simd::scalar_kernels(),
                        const std::vector<FusedFlavour>& flavours = fused_flavours()) {
  std::vector<float> in[8];  // lo_a lo_b mlo_a mlo_b hi_a hi_b mhi_a mhi_b
  for (int i = 0; i < 8; ++i) in[i] = lane_plane(pairs, in_stride, nlines, 50 + i);
  const auto ca = randv(taps, 58), cb = randv(taps, 59);
  const int n = 2 * pairs;
  std::vector<std::vector<float>> ref(nlines, std::vector<float>(n));
  for (int l = 0; l < nlines; ++l) {
    std::vector<float> g[8];
    for (int i = 0; i < 8; ++i) g[i] = gather_lane(in[i].data(), pairs, in_stride, l);
    std::vector<float> lo = g[0], hi = g[4];
    if (fuse_select) {
      simd::select_half_scalar(g[0].data(), g[1].data(), g[2].data(), g[3].data(),
                               pairs, lo.data());
      simd::select_half_scalar(g[4].data(), g[5].data(), g[6].data(), g[7].data(),
                               pairs, hi.data());
    }
    std::vector<float> ext(static_cast<std::size_t>(n + taps));
    for (int k = 0; k < n + taps; ++k) {
      const int src = ((k - synth_offset) % n + n) % n;
      ext[static_cast<std::size_t>(k)] = (src & 1) ? hi[src / 2] : lo[src / 2];
    }
    oracle.synthesize(ext.data(), pairs, ca.data(), cb.data(), taps, ref[l].data());
  }
  auto b = [&](int i) { return fuse_select ? in[i].data() : nullptr; };
  for (const FusedFlavour& fl : flavours) {
    std::vector<float> out(static_cast<std::size_t>(n) * out_stride, kSentinel);
    fl.select_synth(in[0].data(), b(1), in[2].data(), in[3].data(), in[4].data(),
                    b(5), in[6].data(), in[7].data(), in_stride, nlines, pairs,
                    ca.data(), cb.data(), taps, synth_offset, out.data(),
                    out_stride);
    expect_lanes(ref, n, out_stride, out, fl.exact,
                 "select_synth_ml " + fl.name + (fuse_select ? " fused" : " verbatim") +
                     " nlines " + std::to_string(nlines) + " pairs " +
                     std::to_string(pairs) + " taps " + std::to_string(taps));
  }
}

TEST_P(MultiLineEquivalence, AnalyzeMagMl) {
  const int out_len = GetParam();
  for (int nlines = 1; nlines <= simd::kMaxLinesPerCall; ++nlines) {
    for (int taps : {5, 14}) check_analyze_mag(nlines, out_len, taps, 11, 13);
  }
}

TEST_P(MultiLineEquivalence, SelectSynthMl) {
  const int pairs = GetParam();
  for (int nlines = 1; nlines <= simd::kMaxLinesPerCall; ++nlines) {
    for (const bool fuse_select : {true, false}) {
      for (int taps : {7, 16}) {
        check_select_synth(nlines, pairs, taps, 7, fuse_select, 11, 9);
      }
    }
  }
}

// Every lane count against every short line length the fused plan produces
// (column heights of 2..80 rows) and the row-pass lengths of 88- and
// 640-wide frames, at the packed stride of the plan's slabs and at a wider
// plane stride.
std::vector<int> lane_sweep_lengths() {
  std::vector<int> lens;
  for (int n = 1; n <= 40; ++n) lens.push_back(n);
  for (int n : {44, 160, 320}) lens.push_back(n);
  return lens;
}

TEST(LaneKernels, AnalyzeMagMlSweep) {
  constexpr int kSlab = simd::kMaxLinesPerCall;
  for (int nlines = 1; nlines <= simd::kMaxLinesPerCall; ++nlines) {
    for (int out_len : lane_sweep_lengths()) {
      for (int taps : {5, 14}) {
        check_analyze_mag(nlines, out_len, taps, kSlab, kSlab);
        check_analyze_mag(nlines, out_len, taps, 19, 12);
        check_analyze_mag(nlines, out_len, taps, 19, 12, fixed_set(), fixed_flavour());
        // Both trees out of one slab, either one starting further in.
        for (const auto& [re_row, im_row] : {std::pair{1, 0}, std::pair{0, 3}}) {
          check_analyze_mag(nlines, out_len, taps, kSlab, kSlab,
                            simd::scalar_kernels(), fused_flavours(), re_row,
                            im_row);
          check_analyze_mag(nlines, out_len, taps, kSlab, kSlab, fixed_set(),
                            fixed_flavour(), re_row, im_row);
        }
      }
    }
  }
}

TEST(LaneKernels, SelectSynthMlSweep) {
  for (int nlines = 1; nlines <= simd::kMaxLinesPerCall; ++nlines) {
    for (int pairs : lane_sweep_lengths()) {
      for (int taps : {7, 16}) {
        // Offsets beyond one period wrap more than once on short lines.
        check_select_synth(nlines, pairs, taps, 3 + pairs % 5, true, 19, 12);
        check_select_synth(nlines, pairs, taps, -2, false, simd::kMaxLinesPerCall,
                           simd::kMaxLinesPerCall);
        check_select_synth(nlines, pairs, taps, 3 + pairs % 5, true, 19, 12,
                           fixed_set(), fixed_flavour());
        check_select_synth(nlines, pairs, taps, -2, false, simd::kMaxLinesPerCall,
                           simd::kMaxLinesPerCall, fixed_set(), fixed_flavour());
      }
    }
  }
}

// Every instantiation the build compiled is listed, the AVX2 one exactly
// when the CPU runs it, and the simd entry points run the widest of them.
TEST(LaneKernels, EveryCompiledInstantiationIsListed) {
  int n = 0;
  const simd::LaneKernelVariant* v = simd::lane_kernel_variants(&n);
  std::vector<std::string> isas;
  for (int i = 0; i < n; ++i) isas.push_back(v[i].isa);
  ASSERT_GE(n, 1);
  EXPECT_EQ(isas[0], "portable");
  EXPECT_TRUE(v[0].runnable);
#if defined(__SSE2__)
  EXPECT_NE(std::find(isas.begin(), isas.end(), "sse2"), isas.end());
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  EXPECT_NE(std::find(isas.begin(), isas.end(), "neon"), isas.end());
#endif
  const std::string isa_name = simd::simd_isa_name();
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  ASSERT_EQ(isas.back(), "avx2");
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  EXPECT_EQ(v[n - 1].runnable, avx2);
  EXPECT_EQ(isa_name.find("+avx2") != std::string::npos, avx2);
#endif
}

INSTANTIATE_TEST_SUITE_P(Sizes, MultiLineEquivalence,
                         ::testing::Values(1, 7, 44, 198));

// --- blocked transpose -------------------------------------------------------
//
// transpose_f32 copies bits, so every shape — including ones that are all
// tail (1xN, Nx1), straddle the 8x8 tile edge, or are one slab of the fused
// plan's row passes (8xN in, Nx8 out) — must match the naive
// element-by-element transpose exactly, in every compiled instance.
std::vector<std::pair<std::string, decltype(&simd::transpose_f32)>>
transpose_instances() {
  std::vector<std::pair<std::string, decltype(&simd::transpose_f32)>> out = {
      {"transpose_f32", simd::transpose_f32}};
  int n = 0;
  const simd::TransposeVariant* v = simd::transpose_variants(&n);
  for (int i = 0; i < n; ++i) {
    if (v[i].runnable) out.push_back({v[i].isa, v[i].transpose});
  }
  return out;
}

TEST(TransposeF32, MatchesNaiveAtAwkwardShapes) {
  struct Shape { int rows, cols; };
  std::vector<Shape> shapes = {Shape{1, 1},   Shape{1, 17},  Shape{17, 1},
                               Shape{7, 9},   Shape{8, 8},   Shape{9, 7},
                               Shape{16, 16}, Shape{33, 25}, Shape{25, 33},
                               Shape{88, 72}};
  for (int n = 1; n <= 41; ++n) {
    shapes.push_back({8, n});
    shapes.push_back({n, 8});
  }
  for (int n : {320, 640}) {
    shapes.push_back({8, n});
    shapes.push_back({n, 8});
  }
  for (const auto& [isa, transpose] : transpose_instances()) {
    for (Shape s : shapes) {
      const int src_stride = s.cols + 3;  // strides larger than the row length
      const int dst_stride = s.rows + 2;
      const auto src = randv(s.rows * src_stride, 100 + s.rows);
      std::vector<float> dst(static_cast<std::size_t>(s.cols) * dst_stride, -7.0f);
      transpose(src.data(), s.rows, s.cols, src_stride, dst.data(), dst_stride);
      for (int r = 0; r < s.rows; ++r) {
        for (int c = 0; c < s.cols; ++c) {
          ASSERT_EQ(float_bits(src[r * src_stride + c]),
                    float_bits(dst[c * dst_stride + r]))
              << isa << " " << s.rows << "x" << s.cols << " r=" << r << " c=" << c;
        }
      }
      // Padding between destination rows must be untouched.
      for (int c = 0; c < s.cols; ++c) {
        for (int p = s.rows; p < dst_stride; ++p) {
          ASSERT_EQ(dst[c * dst_stride + p], -7.0f) << isa;
        }
      }
    }
  }
}

// Every transpose instance the build compiled is listed, like the lane
// kernels', with the AVX2 one runnable exactly when the CPU has AVX2.
TEST(TransposeF32, EveryCompiledInstanceIsListed) {
  int n = 0;
  const simd::TransposeVariant* v = simd::transpose_variants(&n);
  int lanes = 0;
  const simd::LaneKernelVariant* lv = simd::lane_kernel_variants(&lanes);
  ASSERT_EQ(n, lanes);
  for (int i = 0; i < n; ++i) {
    EXPECT_STREQ(v[i].isa, lv[i].isa);
    EXPECT_EQ(v[i].runnable, lv[i].runnable);
  }
}

// Round trip: transposing twice restores the source bit-for-bit.
TEST(TransposeF32, RoundTrip) {
  const int rows = 29, cols = 43;
  const auto src = randv(rows * cols, 55);
  std::vector<float> t(static_cast<std::size_t>(cols) * rows);
  std::vector<float> back(static_cast<std::size_t>(rows) * cols);
  simd::transpose_f32(src.data(), rows, cols, cols, t.data(), rows);
  simd::transpose_f32(t.data(), cols, rows, rows, back.data(), cols);
  expect_bit_identical(src, back, "transpose round trip");
}

// Signed zeros: the old arithmetic blend (a*t + b*(1-t)) lost -0.0; exact
// selection must preserve it bit-for-bit in every flavour.
TEST(SelectByMagnitudeEdge, PreservesSignedZeros) {
  const int n = 8;
  std::vector<float> a_re(n, -0.0f), a_im(n, 0.0f);
  std::vector<float> b_re(n, 1.0f), b_im(n, -1.0f);
  std::vector<float> mag_a(n, 2.0f), mag_b(n, 1.0f);  // always take a
  std::vector<float> re(n), im(n);
  simd::select_by_magnitude_simd(a_re.data(), a_im.data(), b_re.data(), b_im.data(),
                                 mag_a.data(), mag_b.data(), n, re.data(), im.data());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(float_bits(re[i]), float_bits(-0.0f)) << i;
    EXPECT_EQ(float_bits(im[i]), float_bits(0.0f)) << i;
  }
}

// The dispatch table must expose exactly the three flavours, default to the
// bit-identical "simd" set, and reject unknown names without changing state.
TEST(KernelDispatch, NamedSetsAndDefault) {
  EXPECT_STREQ(simd::active_kernels().name, "simd");
  EXPECT_STREQ(simd::scalar_kernels().name, "scalar");
  EXPECT_STREQ(simd::autovec_kernels().name, "autovec");
  EXPECT_FALSE(simd::set_active_kernels("avx999"));
  EXPECT_STREQ(simd::active_kernels().name, "simd");
  EXPECT_TRUE(simd::set_active_kernels("autovec"));
  EXPECT_STREQ(simd::active_kernels().name, "autovec");
  EXPECT_TRUE(simd::set_active_kernels("simd"));
  EXPECT_STREQ(simd::active_kernels().name, "simd");
}

// Odd lengths exercise the SIMD tail path; 44 and 1024 are the bench sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, KernelEquivalence,
                         ::testing::Values(1, 3, 7, 44, 101, 1024));

}  // namespace
