// Multi-level DT-CWT analysis/synthesis built on the decimating
// dual-correlation kernels.
//
// Layering: this file depends only on src/common and src/simd (plus ImageF).
// Filter banks are stored pre-baked in the exact array form the kernels (and
// the modeled FPGA wavelet engine) consume:
//
//   analysis:  lo[i] = sum_t lp[t] * ext[2i + t]   with ext[k] = x[(k-E) mod N]
//   synthesis: y[2m]   = sum_t ca[t] * extu[2m + t]
//              y[2m+1] = sum_t cb[t] * extu[2m + t]
//   where extu is the periodically extended interleaved lo/hi stream.
//
// Banks are constructed from a biorthogonal prototype (h0, g0) via the
// quadrature pairing H1(z) = z^-k G0(-z), G1(z) = z^k H0(-z) with odd k,
// which cancels aliasing exactly, so a single analysis+synthesis level is a
// zero-delay identity on periodic signals (tests/test_dwt.cpp locks < 1e-4
// over random frames). The dual tree doubles this per dimension: tree B is
// the one-sample-delayed bank at level 1 and the reversed q-shift filter at
// levels >= 2 (Kingsbury's construction).
#pragma once

#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/image/metrics.h"
#include "src/simd/dispatch.h"

namespace vf::dwt {

enum class Wavelet {
  kLeGall53,   // 5/3 biorthogonal — level-1 default, fits a 5-slot engine
  kCdf97,      // 9/7 biorthogonal — higher-quality level-1 alternative
  kQshift14A,  // Kingsbury q-shift 14-tap, tree A (levels >= 2)
  kQshift14B,  // time-reverse of A, tree B
};

const char* wavelet_name(Wavelet w);

struct FilterBank {
  Wavelet wavelet = Wavelet::kLeGall53;
  // Analysis pair, padded to one shared window of `taps()` samples.
  std::vector<float> lp, hp;
  int analysis_offset = 0;  // E in ext[k] = x[(k - E) mod N]
  // Synthesis pair over the interleaved stream.
  std::vector<float> ca, cb;
  int synthesis_offset = 0;  // S in extu[k] = u[(k - S) mod N]

  int taps() const { return static_cast<int>(lp.size()); }
  int synth_taps() const { return static_cast<int>(ca.size()); }
};

// `delay` shifts the analysis filters by +delay samples (and the synthesis
// filters by -delay) — used to build the level-1 tree-B bank.
FilterBank make_filter_bank(Wavelet w, int delay = 0);

// Coefficient-register depth the modeled FPGA engine needs to run this bank
// (= the analysis window width; see bench_ablation_taps).
int required_slots(const FilterBank& bank);

// --- execution backends -----------------------------------------------------

struct FilterStats {
  long long analysis_macs = 0;
  long long synthesis_macs = 0;
  long long analysis_lines = 0;
  long long synthesis_lines = 0;
  long long total_macs() const { return analysis_macs + synthesis_macs; }
};

// A LineFilter is the seam between the transform and whatever executes it —
// the same line granularity at which the paper's driver feeds the PL engine.
// It carries no numerics of its own; it names them and accounts for them:
//
//   kernels()    the simd::KernelSet every transform line and fusion-rule
//                call runs through (scalar / simd / autovec, or a fixed-
//                point datapath from hw::fixed_point_kernels). Pure, so the
//                transform calls it from pool workers.
//   account_*()  modeled-time / statistics bookkeeping: exactly one call per
//                line, in canonical line order, always on the caller thread.
//                Accounting is inherently order-dependent (double-precision
//                ledgers, accelerator double-buffer state, event-queue
//                scheduling), so it is never fanned out: the transform runs
//                the numerics first and then replays the account_*/barrier()
//                sequence serially — which is why modeled output is
//                bit-identical at any thread count.
class LineFilter {
 public:
  virtual ~LineFilter() = default;

  // Data-dependency fence between line batches: lines issued after the
  // barrier read outputs of lines issued before it (row pass -> column
  // pass, level L -> level L+1). Synchronous filters need nothing — the
  // default is a no-op — but pipelined engine models (which overlap
  // consecutive line requests) must not start a dependent input transfer
  // before the producing outputs have landed.
  virtual void barrier() {}

  virtual const simd::KernelSet& kernels() const;  // default: active_kernels()
  virtual void account_analyze(int out_len, int taps) {
    (void)out_len;
    (void)taps;
  }
  virtual void account_synthesize(int pairs, int taps) {
    (void)pairs;
    (void)taps;
  }
  virtual void account_magnitude(int n) { (void)n; }
  virtual void account_select(int n) { (void)n; }

  // Host pool for data-parallel numeric work; nullptr = serial execution.
  // Modeled time is unaffected by the pool (see account_* above).
  virtual ThreadPool* pool() const { return nullptr; }
};

// The host filter: numerics from one fixed KernelSet, an optional host pool,
// and MAC/line statistics. The one-argument form is serial.
class KernelLineFilter : public LineFilter {
 public:
  explicit KernelLineFilter(const simd::KernelSet& kernels) : kernels_(&kernels) {}
  KernelLineFilter(const simd::KernelSet& kernels, const HostConfig& host)
      : kernels_(&kernels), pool_(host::pool(host)) {}

  const simd::KernelSet& kernels() const override { return *kernels_; }
  ThreadPool* pool() const override { return pool_; }
  void account_analyze(int out_len, int taps) override {
    stats_.analysis_macs += 2LL * out_len * taps;
    stats_.analysis_lines += 1;
  }
  void account_synthesize(int pairs, int taps) override {
    stats_.synthesis_macs += 2LL * pairs * taps;
    stats_.synthesis_lines += 1;
  }

  void reset_stats() { stats_ = {}; }
  const FilterStats& stats() const { return stats_; }

 private:
  const simd::KernelSet* kernels_;
  ThreadPool* pool_ = nullptr;
  FilterStats stats_;
};

// KernelLineFilter pinned to simd_kernels(); kept for perfbench/main.cpp.
class SimdLineFilter : public KernelLineFilter {
 public:
  explicit SimdLineFilter(const HostConfig& host)
      : KernelLineFilter(simd::simd_kernels(), host) {}
};

// --- 2-D multi-level transform ----------------------------------------------

// Every transform runs on one engine: the lane-interleaved passes in
// detail:: below, which fuse_frames and the timed runners drive through the
// band-streaming plan (src/fusion/fused_plan.h) and the standalone entry
// points (forward_tree/inverse_tree, forward_dtcwt/inverse_dtcwt, and
// through them the DWT baseline fuse_frames_dwt) drive one tree pair or one
// tree at a time. Each entry point runs its numerics first, pool-parallel
// over blocks of lines, and then replays the account_*/barrier() sequence
// serially, so modeled output is bit-identical at any thread count;
// tests/dtcwt_oracle.h is the scalar reference every path must match bit
// for bit.
//
// Read-only and constant: host_layout() is always kFused and its name
// "fused". They exist only because perfbench/main.cpp prints them.
enum class HostLayout { kFused };
HostLayout host_layout();
const char* host_layout_name(HostLayout layout);

struct TransformConfig {
  int levels = 3;
  Wavelet level1 = Wavelet::kLeGall53;
  Wavelet higher = Wavelet::kQshift14A;  // tree A; tree B is its reverse
};

struct LevelBands {
  image::ImageF lh, hl, hh;  // row-lo/col-hi, row-hi/col-lo, row-hi/col-hh
  int in_rows = 0, in_cols = 0;  // pre-padding input dims (crop on inverse)
};

// One critically sampled wavelet decomposition (one tree of the dual tree,
// or the whole transform for the plain-DWT baseline).
struct TreePyramid {
  std::vector<LevelBands> levels;
  image::ImageF ll;
};

// `row_tree`/`col_tree`: 0 = tree A, 1 = tree B (one-sample level-1 delay +
// reversed q-shift filters at levels >= 2) applied along that dimension.
// Both abort (in every build type) on an empty image or fewer than one
// level; inverse_tree also on a pyramid that is not a config.levels-level
// transform of its levels[0].in_rows x in_cols input.
TreePyramid forward_tree(const image::ImageF& img, const TransformConfig& config,
                         int row_tree, int col_tree, LineFilter& filter);
image::ImageF inverse_tree(const TreePyramid& pyr, const TransformConfig& config,
                           int row_tree, int col_tree, LineFilter& filter);

// The full 4x-redundant 2-D DT-CWT: trees indexed by (row_tree, col_tree) in
// {A,B}^2, i.e. tree[0]=AA, tree[1]=AB, tree[2]=BA, tree[3]=BB. The forward
// filters trees (0,3) and (1,2) as the two sides of each lane call; the
// filter's accounting is replayed in tree order. Same checks as above, on
// every tree of the inverse's pyramid.
struct DtcwtPyramid {
  TreePyramid tree[4];
};

DtcwtPyramid forward_dtcwt(const image::ImageF& img, const TransformConfig& config,
                           LineFilter& filter);
// Averages the four trees' reconstructions.
image::ImageF inverse_dtcwt(const DtcwtPyramid& pyr, const TransformConfig& config,
                            LineFilter& filter);

// --- shared transform internals ---------------------------------------------
// The one transform engine, shared by the standalone transforms above, the
// DWT baseline (src/fusion/fuse.cpp) and the band-streaming fused plan
// (src/fusion/fused_plan.cpp).
namespace detail {

// The bank a given tree applies at a given level (tree B = one-sample delay
// at level 1, reversed q-shift at levels >= 2).
FilterBank bank_for_level(const TransformConfig& config, int level, int tree);

// The DT-CWT trees filtered together as the two sides of a lane call,
// kPairTree[pair][side]: trees (0,3) and (1,2), the complex pairs of the
// fusion rule. Side s is row tree s; its column tree is s == 0 ? pair :
// 1 - pair.
inline constexpr int kPairTree[2][2] = {{0, 3}, {1, 2}};

// Geometry of one level of a transform.
struct LevelDims {
  int r, c;    // pre-padding input dims of this level
  int rp, cp;  // padded (even) dims
  int hr, hc;  // subband dims (rp/2, cp/2)
  int lead;      // extended row-pass planes: row pass output starts here,
  int ext_rows;  // rows in all, including the periodic extension;
  int skip[2];   // first row the column bank of tree t reads
};

// Banks and level geometry of a config.levels-level transform of a
// rows x cols frame. Aborts in every build type, naming `where`, on empty
// dims, fewer than one level, or tree-A and tree-B banks of a level that
// disagree on taps() or synth_taps() (one lane-interleaved call filters both
// trees).
struct TransformLevels {
  TransformLevels(int rows, int cols, const TransformConfig& config,
                  const char* where);
  int levels() const { return static_cast<int>(dims.size()); }

  std::vector<FilterBank> banks[2];  // [tree][level]; rows and columns alike
  std::vector<LevelDims> dims;       // [level]
};

// Both sides' row pass of `level` (side s: the r x c plane src[s] at row
// stride src_stride, row tree row_tree[s]), edge-replicated to rp x cp on
// the fly, into extended row-pass planes lo[s]/hi[s] of ext_rows x hc, the
// pass output at rows [lead, lead + rp).
void forward_row_pass(const TransformLevels& t, int level,
                      const float* const src[2], int src_stride,
                      const int row_tree[2], const simd::KernelSet& k,
                      ThreadPool* pool, float* const lo[2], float* const hi[2]);

// Both sides' column analysis of `level` from forward_row_pass's planes
// (side s: column tree col_tree[s]): lo[s] -> ll[s], lh[s] and hi[s] ->
// hl[s], hh[s], each hr x hc at row stride `stride`.
void analysis_col_pass(const TransformLevels& t, int level,
                       const float* const lo[2], const float* const hi[2],
                       const int col_tree[2], const simd::KernelSet& k,
                       ThreadPool* pool, float* const ll[2], float* const lh[2],
                       float* const hl[2], float* const hh[2], int stride);

// Column synthesis of `level` with column tree col_tree: (ll, lh) -> rowlo
// and (hl, hh) -> rowhi, each rp x hc; the band planes are read at row
// stride `stride`.
void synthesis_col_pass(const TransformLevels& t, int level, int col_tree,
                        const float* ll, const float* lh, const float* hl,
                        const float* hh, int stride, const simd::KernelSet& k,
                        ThreadPool* pool, float* rowlo, float* rowhi);

// Row synthesis of `level` with row tree row_tree: rowlo/rowhi (rp x hc)
// into the level's input dims, r x c at row stride out_stride (the padding
// is cropped).
void synthesis_row_pass(const TransformLevels& t, int level, int row_tree,
                        const float* rowlo, const float* rowhi,
                        const simd::KernelSet& k, ThreadPool* pool, float* out,
                        int out_stride);

// Replay one tree's forward / inverse account_*/barrier() sequence — the
// exact sequence a serial transform would interleave with its numerics,
// derived from shapes alone (accounting never reads sample values).
void account_forward_tree(const TransformLevels& t, int row_tree, int col_tree,
                          LineFilter& f);
void account_inverse_tree(const TransformLevels& t, int row_tree, int col_tree,
                          LineFilter& f);

// forward_tree's numerics for two frames at once, one per side of each lane
// call (the DWT baseline's two inputs): no filter call.
void forward_tree_pair(const TransformLevels& t, const image::ImageF& a,
                       const image::ImageF& b, int row_tree, int col_tree,
                       const simd::KernelSet& k, ThreadPool* pool,
                       TreePyramid* pa, TreePyramid* pb);
// inverse_tree's numerics (no filter call) for a pyramid whose dims match t.
image::ImageF inverse_tree_numerics(const TransformLevels& t, const TreePyramid& pyr,
                                    int row_tree, int col_tree,
                                    const simd::KernelSet& k, ThreadPool* pool);

}  // namespace detail

}  // namespace vf::dwt
