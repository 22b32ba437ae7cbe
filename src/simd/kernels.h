// Compute kernels of the fusion pipeline, in three flavours each:
//
//   *_scalar  — reference implementation, one output at a time;
//   *_simd    — hand-vectorized: SSE2 / NEON intrinsics where the target has
//               them (see simd_isa_name()), otherwise the 4-lane blocked code
//               mirroring the paper's NEON port. Accumulation order matches
//               the scalar kernel exactly, so results are bit-identical;
//   *_autovec — plain nested loop laid out for the compiler's vectorizer
//               (kernels_autovec.cpp, its own TU so tests/check_autovec.cmake
//               can recompile it with vectorization reports and assert the
//               hot loops vectorized). Within 1 ulp of scalar.
//
// All kernels are pure: extension/padding policy (periodic, symmetric) is the
// caller's job — `x` must already hold the extended line. This is exactly the
// contract of the paper's FPGA wavelet engine, which also receives a line
// buffer of `2*out_len + taps` samples per request. Purity is also what lets
// the host thread pool (src/common/thread_pool.h) call any flavour from
// worker threads; per-kernel flavour selection lives in src/simd/dispatch.h.
//
//   dual_corr_decimate2:        lo[i] = sum_t lp[t] * x[2i + t]
//                               hi[i] = sum_t hp[t] * x[2i + t]
//   dual_corr_decimate2_ileave: out[2k]   = sum_t ca[t] * x[2k + t]
//                               out[2k+1] = sum_t cb[t] * x[2k + t]
//     (synthesis form: x is the interleaved lo/hi stream, ca/cb are the even/
//      odd polyphase filters, so one pass reconstructs two output samples)
//   complex_magnitude:          mag[i] = sqrt(re[i]^2 + im[i]^2)
//   select_by_magnitude:        out[i] = mag_a[i] >= mag_b[i] ? a[i] : b[i]
//   average:                    out[i] = 0.5 * (a[i] + b[i])
#pragma once

#include <cstdint>

namespace vf::simd {

inline constexpr int kSimdLanes = 4;

// Instruction set the *_simd kernels run: "sse2", "neon", or "blocked"
// (portable 4-lane fallback), with "+avx2" appended when the lane-
// interleaved fused kernels dispatch to their AVX2 instantiation (x86 hosts
// that support it), e.g. "sse2+avx2".
const char* simd_isa_name();

// --- analysis: dual correlation + decimate by 2 -----------------------------
void dual_corr_decimate2_scalar(const float* x, int out_len, const float* lp,
                                const float* hp, int taps, float* lo, float* hi);
void dual_corr_decimate2_simd(const float* x, int out_len, const float* lp,
                              const float* hp, int taps, float* lo, float* hi);
void dual_corr_decimate2_autovec(const float* x, int out_len, const float* lp,
                                 const float* hp, int taps, float* lo, float* hi);

// --- synthesis: dual correlation over the interleaved subband stream --------
void dual_corr_decimate2_ileave_scalar(const float* x, int pairs, const float* ca,
                                       const float* cb, int taps, float* out);
void dual_corr_decimate2_ileave_simd(const float* x, int pairs, const float* ca,
                                     const float* cb, int taps, float* out);
void dual_corr_decimate2_ileave_autovec(const float* x, int pairs, const float* ca,
                                        const float* cb, int taps, float* out);

// --- fusion rule helpers ----------------------------------------------------
void complex_magnitude_scalar(const float* re, const float* im, int n, float* mag);
void complex_magnitude_simd(const float* re, const float* im, int n, float* mag);
void complex_magnitude_autovec(const float* re, const float* im, int n, float* mag);

void select_by_magnitude_scalar(const float* a_re, const float* a_im, const float* b_re,
                                const float* b_im, const float* mag_a,
                                const float* mag_b, int n, float* out_re,
                                float* out_im);
void select_by_magnitude_simd(const float* a_re, const float* a_im, const float* b_re,
                              const float* b_im, const float* mag_a, const float* mag_b,
                              int n, float* out_re, float* out_im);
void select_by_magnitude_autovec(const float* a_re, const float* a_im,
                                 const float* b_re, const float* b_im,
                                 const float* mag_a, const float* mag_b, int n,
                                 float* out_re, float* out_im);

// --- lowpass residual averaging ---------------------------------------------
void average_scalar(const float* a, const float* b, int n, float* out);
void average_simd(const float* a, const float* b, int n, float* out);
void average_autovec(const float* a, const float* b, int n, float* out);

// --- multi-line variants -----------------------------------------------------
//
// Process `nlines` independent lines per call: line l reads its (extended)
// inputs at base + l*stride and writes outputs at base + l*out_stride. Per
// line the arithmetic order is EXACTLY the single-line flavour's (the scalar
// _ml variant calls the scalar kernel per line, the simd one the simd kernel,
// ...), so batching lines never moves an output bit and every flavour-parity
// guarantee above carries over line by line. What a multi-line call buys is
// host throughput: one dispatch-table indirection per 4-8 lines instead of
// per line, scratch sizing amortized across the batch, and a contiguous walk
// over a block of lines the caller laid out back-to-back. No transform
// calls them (the fused plan's in-cache select_ml aside): every pass, row
// and column, runs the lane-interleaved kernels below. The fixed-point sets
// (hw::fixed_point_kernels) keep the same per-line contract with their
// quantizing datapath. kMaxLinesPerCall
// bounds the batch so a block of extended lines stays inside L1; it is also
// the lane width of the lane-interleaved fused kernels below (one AVX2
// register, two SSE2/NEON registers).
inline constexpr int kMaxLinesPerCall = 8;

void dual_corr_decimate2_ml_scalar(const float* x, int x_stride, int nlines,
                                   int out_len, const float* lp, const float* hp,
                                   int taps, float* lo, float* hi, int out_stride);
void dual_corr_decimate2_ml_simd(const float* x, int x_stride, int nlines,
                                 int out_len, const float* lp, const float* hp,
                                 int taps, float* lo, float* hi, int out_stride);
void dual_corr_decimate2_ml_autovec(const float* x, int x_stride, int nlines,
                                    int out_len, const float* lp, const float* hp,
                                    int taps, float* lo, float* hi, int out_stride);

void dual_corr_decimate2_ileave_ml_scalar(const float* x, int x_stride, int nlines,
                                          int pairs, const float* ca, const float* cb,
                                          int taps, float* out, int out_stride);
void dual_corr_decimate2_ileave_ml_simd(const float* x, int x_stride, int nlines,
                                        int pairs, const float* ca, const float* cb,
                                        int taps, float* out, int out_stride);
void dual_corr_decimate2_ileave_ml_autovec(const float* x, int x_stride, int nlines,
                                           int pairs, const float* ca, const float* cb,
                                           int taps, float* out, int out_stride);

void complex_magnitude_ml_scalar(const float* re, const float* im, int nlines,
                                 int len, int in_stride, float* mag, int out_stride);
void complex_magnitude_ml_simd(const float* re, const float* im, int nlines,
                               int len, int in_stride, float* mag, int out_stride);
void complex_magnitude_ml_autovec(const float* re, const float* im, int nlines,
                                  int len, int in_stride, float* mag, int out_stride);

void select_by_magnitude_ml_scalar(const float* a_re, const float* a_im,
                                   const float* b_re, const float* b_im,
                                   const float* mag_a, const float* mag_b,
                                   int nlines, int len, int in_stride,
                                   float* out_re, float* out_im, int out_stride);
void select_by_magnitude_ml_simd(const float* a_re, const float* a_im,
                                 const float* b_re, const float* b_im,
                                 const float* mag_a, const float* mag_b,
                                 int nlines, int len, int in_stride,
                                 float* out_re, float* out_im, int out_stride);
void select_by_magnitude_ml_autovec(const float* a_re, const float* a_im,
                                    const float* b_re, const float* b_im,
                                    const float* mag_a, const float* mag_b,
                                    int nlines, int len, int in_stride,
                                    float* out_re, float* out_im, int out_stride);

// --- fused cross-stage kernels (band-streaming execution plan) ---------------
//
// The fused host plan (src/fusion/fused_plan.cpp) collapses the forward
// column pass + magnitude, and the select rule + inverse synthesis, into one
// walk over each block of image columns. Both kernels are LANE-INTERLEAVED:
// they filter up to kMaxLinesPerCall image columns at once, straight out of
// the row-major planes, with no transpose. The plan's row passes run them
// too, over slabs of kMaxLinesPerCall image rows that transpose_f32 lays
// out in the same layout: analyze_mag_ml with null magnitudes filters both
// trees' rows in one call (x_re and x_im may point into one slab), and
// select_synth_ml with null *_b synthesizes rows.
//
//   layout:  sample j of line (lane) l sits at x[j * stride + l], for every
//            input and output plane; exactly the nlines <= kMaxLinesPerCall
//            live lanes are read and stored, so a block's right neighbour in
//            the plane is never touched;
//   order:   lane l computes each of its outputs in the scalar kernels'
//            order (taps ascending, each product rounded, then added, no
//            FMA). Vectorizing ACROSS lines never reorders a sum, so the
//            simd flavour is bit-identical to scalar with no tail loop;
//            only a horizontal reduction would have to reorder.
//
//   select_half:     out[i] = mag_a[i] >= mag_b[i] ? a[i] : b[i]
//     (one component of select_by_magnitude; the parity tests' oracle for
//      the select inside select_synth_ml)
//   analyze_mag_ml:  per lane l: the re-tree line x_re (2*out_len + taps
//     pre-extended samples) through (lp_re, hp_re) into (lo_re, hi_re), the
//     im-tree line x_im through (lp_im, hp_im) into (lo_im, hi_im) — the
//     dual_corr_decimate2 arithmetic — then, when mag_lo/mag_hi are
//     non-null, complex_magnitude of (lo_re, lo_im) / (hi_re, hi_im).
//   select_synth_ml: per lane l: when the *_b inputs are non-null, half-
//     select the lo (and independently the hi) stream by magnitude; build the
//     periodic interleaved extension ext[k] = z[(k - synth_offset) mod
//     2*pairs] of z = (lo[0], hi[0], lo[1], hi[1], ...); then the dual_corr
//     ileave arithmetic into 2*pairs output samples. Null *_b means the
//     stream is already fused and is taken verbatim.
//
// The *_simd entry points run one template over an 8-lane vector type
// (kernels.cpp, lane_kernels.inc), instantiated for portable code, SSE2 or
// NEON, and — on x86 — AVX2 built with a target("avx2") attribute and
// picked once at first use with __builtin_cpu_supports. AVX2 is used without
// FMA, so products and sums stay separately rounded. *_autovec is a
// lane-innermost loop for the compiler's vectorizer, within 1 ulp.

void select_half_scalar(const float* a, const float* b, const float* mag_a,
                        const float* mag_b, int n, float* out);

void analyze_mag_ml_scalar(const float* x_re, const float* x_im, int x_stride,
                           int nlines, int out_len, const float* lp_re,
                           const float* hp_re, const float* lp_im,
                           const float* hp_im, int taps, float* lo_re,
                           float* hi_re, float* lo_im, float* hi_im,
                           float* mag_lo, float* mag_hi, int out_stride);
void analyze_mag_ml_simd(const float* x_re, const float* x_im, int x_stride,
                         int nlines, int out_len, const float* lp_re,
                         const float* hp_re, const float* lp_im,
                         const float* hp_im, int taps, float* lo_re,
                         float* hi_re, float* lo_im, float* hi_im,
                         float* mag_lo, float* mag_hi, int out_stride);
void analyze_mag_ml_autovec(const float* x_re, const float* x_im, int x_stride,
                            int nlines, int out_len, const float* lp_re,
                            const float* hp_re, const float* lp_im,
                            const float* hp_im, int taps, float* lo_re,
                            float* hi_re, float* lo_im, float* hi_im,
                            float* mag_lo, float* mag_hi, int out_stride);

void select_synth_ml_scalar(const float* lo_a, const float* lo_b,
                            const float* mlo_a, const float* mlo_b,
                            const float* hi_a, const float* hi_b,
                            const float* mhi_a, const float* mhi_b,
                            int in_stride, int nlines, int pairs,
                            const float* ca, const float* cb, int taps,
                            int synth_offset, float* out, int out_stride);
void select_synth_ml_simd(const float* lo_a, const float* lo_b,
                          const float* mlo_a, const float* mlo_b,
                          const float* hi_a, const float* hi_b,
                          const float* mhi_a, const float* mhi_b,
                          int in_stride, int nlines, int pairs,
                          const float* ca, const float* cb, int taps,
                          int synth_offset, float* out, int out_stride);
void select_synth_ml_autovec(const float* lo_a, const float* lo_b,
                             const float* mlo_a, const float* mlo_b,
                             const float* hi_a, const float* hi_b,
                             const float* mhi_a, const float* mhi_b,
                             int in_stride, int nlines, int pairs,
                             const float* ca, const float* cb, int taps,
                             int synth_offset, float* out, int out_stride);

// Every compiled instantiation of the lane-interleaved simd kernels, in
// order portable, sse2 | neon, avx2. `runnable` is false for an instantiation
// the host CPU cannot execute. The *_simd entry points above dispatch to the
// last runnable one; the parity tests call each instantiation directly.
struct LaneKernelVariant {
  const char* isa;
  bool runnable;
  decltype(&analyze_mag_ml_scalar) analyze_mag_ml;
  decltype(&select_synth_ml_scalar) select_synth_ml;
};
const LaneKernelVariant* lane_kernel_variants(int* count);

// --- cache-blocked transpose -------------------------------------------------
//
// dst (cols x rows, row stride dst_stride) = transpose of src (rows x cols,
// row stride src_stride). 8x8 cache tiles with a register micro-kernel:
// four 4x4 quads on SSE2/NEON and, on x86 hosts that support it, one 8x8
// AVX2 transpose (target("avx2"), picked at first use like the lane
// kernels). Exact data movement, so every instance gives the same bits.
// This is what lays 8 image rows out as the lane slabs of the transform
// engine's row passes (dwt_fusion.cpp).
void transpose_f32(const float* src, int rows, int cols, int src_stride,
                   float* dst, int dst_stride);

// Every compiled transpose instance, in the order and with the meaning of
// lane_kernel_variants(); transpose_f32 runs the last runnable one.
struct TransposeVariant {
  const char* isa;
  bool runnable;
  decltype(&transpose_f32) transpose;
};
const TransposeVariant* transpose_variants(int* count);

}  // namespace vf::simd
