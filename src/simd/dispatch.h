// Startup-time kernel dispatch: one resolved implementation per kernel
// family, selectable between the scalar / simd / autovec flavours.
//
// The default set is "simd" — bit-identical to scalar (kernels.cpp keeps the
// scalar accumulation order in every ISA path, including the AVX2 instance
// of the fused kernels it picks at run time on hosts that have it), so
// flipping the dispatch never changes any modeled or fused output. "autovec" is an explicit
// opt-in (bench --kernels autovec): it is within 1 ulp of scalar but not
// guaranteed bit-identical on every compiler, so it must never become the
// silent default underneath the determinism tests.
//
// LineFilter::kernels() (dwt_fusion.h) returns one of these sets, or a
// fixed-point engine datapath built the same way (hw::fixed_point_kernels,
// one set per Qm.n format); everything the transform executes — including
// from thread-pool workers — goes through the set's function pointers. That
// is how `--kernels` reaches every backend, and why the transform engine
// needs no per-filter branch: every transform pass runs the lane-
// interleaved entries (analyze_mag_ml, select_synth_ml), the DWT baseline's
// fusion rule the single-line magnitude/select, and the lowpass residue
// average.
#pragma once

#include "src/simd/kernels.h"

namespace vf::simd {

struct KernelSet {
  const char* name;  // "scalar" | "simd" | "autovec" | "fixed Qm.n"
  void (*analyze)(const float* x, int out_len, const float* lp, const float* hp,
                  int taps, float* lo, float* hi);
  void (*synthesize)(const float* x, int pairs, const float* ca, const float* cb,
                     int taps, float* out);
  void (*magnitude)(const float* re, const float* im, int n, float* mag);
  void (*select)(const float* a_re, const float* a_im, const float* b_re,
                 const float* b_im, const float* mag_a, const float* mag_b, int n,
                 float* out_re, float* out_im);
  void (*average)(const float* a, const float* b, int n, float* out);
  // Multi-line forms (kernels.h): per line they run the exact single-line
  // flavour above, so they inherit its bit-identity/1-ulp contract. No
  // transform calls them (select_ml aside, the fused plan's in-cache
  // select); they stay in the set because bench_kernels and
  // perfbench/main.cpp measure them.
  void (*analyze_ml)(const float* x, int x_stride, int nlines, int out_len,
                     const float* lp, const float* hp, int taps, float* lo,
                     float* hi, int out_stride);
  void (*synthesize_ml)(const float* x, int x_stride, int nlines, int pairs,
                        const float* ca, const float* cb, int taps, float* out,
                        int out_stride);
  void (*magnitude_ml)(const float* re, const float* im, int nlines, int len,
                       int in_stride, float* mag, int out_stride);
  void (*select_ml)(const float* a_re, const float* a_im, const float* b_re,
                    const float* b_im, const float* mag_a, const float* mag_b,
                    int nlines, int len, int in_stride, float* out_re,
                    float* out_im, int out_stride);
  // Fused cross-stage forms (kernels.h): forward column analysis + complex
  // magnitude in one walk, and magnitude select + inverse synthesis in one
  // walk. LANE-INTERLEAVED, unlike the entries above: up to
  // kMaxLinesPerCall lines per call (image columns, or the image rows of a
  // transposed row-pass slab), sample j of line l at x[j * stride + l], only
  // the nlines live lanes read and stored. Each lane
  // keeps the scalar kernels' per-output order, so every transform pass
  // (dwt_fusion.cpp, fused_plan.cpp) inherits the single-line kernels'
  // bit-identity/1-ulp contract. nlines, out_len/pairs and taps mean what
  // they mean for analyze_ml/synthesize_ml, so flop and line counts of a
  // call carry over.
  void (*analyze_mag_ml)(const float* x_re, const float* x_im, int x_stride,
                         int nlines, int out_len, const float* lp_re,
                         const float* hp_re, const float* lp_im,
                         const float* hp_im, int taps, float* lo_re,
                         float* hi_re, float* lo_im, float* hi_im,
                         float* mag_lo, float* mag_hi, int out_stride);
  void (*select_synth_ml)(const float* lo_a, const float* lo_b,
                          const float* mlo_a, const float* mlo_b,
                          const float* hi_a, const float* hi_b,
                          const float* mhi_a, const float* mhi_b,
                          int in_stride, int nlines, int pairs, const float* ca,
                          const float* cb, int taps, int synth_offset,
                          float* out, int out_stride);
};

const KernelSet& scalar_kernels();
const KernelSet& simd_kernels();
const KernelSet& autovec_kernels();

// Process-wide active set (default: simd). set_active_kernels returns false
// on an unknown name and leaves the selection unchanged. Not synchronized:
// select at startup (bench_util's --kernels), before spawning parallel work.
const KernelSet& active_kernels();
bool set_active_kernels(const char* name);

}  // namespace vf::simd
