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
// and MAC/line statistics. The one-argument form is serial; the tree-
// parallel paths of forward_dtcwt/inverse_dtcwt run each worker's numerics
// through one (the real filter's accounting is replayed serially after).
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

// There is one host implementation per entry point. fuse_frames and the
// timed runners always run the band-streaming plan (src/fusion/fused_plan.h):
// the two frames' transforms interleaved band by band, each band consumed by
// the magnitude/select rule while hot in cache, fused bands streamed
// straight into inverse synthesis. The standalone transforms below
// (forward_tree/inverse_tree, forward_dtcwt/inverse_dtcwt, and through them
// the DWT baseline fuse_frames_dwt) run the staged tiled path: per-thread
// arena scratch (src/common/arena.h), run-based periodic extension, and a
// cache-blocked transpose so the column pass filters contiguous rows through
// the multi-line kernels (KernelSet::analyze_ml/synthesize_ml, up to
// simd::kMaxLinesPerCall lines per dispatch). Both feed every line the same
// extended samples through the same per-line kernel arithmetic and replay
// the same account_*/barrier() sequence; tests/dtcwt_oracle.h is the scalar
// reference both must match bit for bit.
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
// When `filter` has a pool, the per-row/per-column numeric loops fan out
// over it (accounting replayed serially per pass).
TreePyramid forward_tree(const image::ImageF& img, const TransformConfig& config,
                         int row_tree, int col_tree, LineFilter& filter);
image::ImageF inverse_tree(const TreePyramid& pyr, const TransformConfig& config,
                           int row_tree, int col_tree, LineFilter& filter);

// The full 4x-redundant 2-D DT-CWT: trees indexed by (row_tree, col_tree) in
// {A,B}^2, i.e. tree[0]=AA, tree[1]=AB, tree[2]=BA, tree[3]=BB.
struct DtcwtPyramid {
  TreePyramid tree[4];
};

// When `filter` has a pool, the four independent trees run their numerics
// in parallel (through a serial KernelLineFilter each) and the filter's
// account_*/barrier() sequence is replayed serially in tree order — modeled
// time is bit-identical to the serial path at any thread count.
DtcwtPyramid forward_dtcwt(const image::ImageF& img, const TransformConfig& config,
                           LineFilter& filter);
// Averages the four trees' reconstructions.
image::ImageF inverse_dtcwt(const DtcwtPyramid& pyr, const TransformConfig& config,
                            LineFilter& filter);

// --- shared transform internals ---------------------------------------------
// Shared by the tiled transforms and the band-streaming fused plan
// (src/fusion/fused_plan.cpp), which must produce the same per-line inputs
// and the same account_*/barrier() sequence.
namespace detail {

// The bank a given tree applies at a given level (tree B = one-sample delay
// at level 1, reversed q-shift at levels >= 2).
FilterBank bank_for_level(const TransformConfig& config, int level, int tree);

// Run-based periodic extension of one analysis line (ext needs
// n + bank.taps() floats).
void fill_analysis_ext(const FilterBank& bank, const float* x, int n, float* ext);

// Periodic extension of the interleaved lo/hi stream of one synthesis line
// (n = 2 * pairs samples; ext needs n + bank.synth_taps() floats):
// ext[k] = stream[(k - synthesis_offset) mod n], stream = lo[0], hi[0], ...
void fill_synthesis_ext(const FilterBank& bank, const float* lo, const float* hi,
                        int n, float* ext);

// Replay one tree's forward / inverse account_*/barrier() sequence for an
// input of the given pre-padding dims — the exact sequence forward_tree /
// inverse_tree emit, derived from shapes alone (accounting never reads
// sample values). The first form builds the tree's banks; the others take
// the per-level banks (row_banks[level] / col_banks[level], config.levels
// each) from the caller — the fused plan replays twelve tree accountings per
// frame pair, and rebuilding the banks dominated the replay cost.
void account_forward_tree(int rows, int cols, const TransformConfig& config,
                          int row_tree, int col_tree, LineFilter& f);
void account_forward_tree(int rows, int cols, const TransformConfig& config,
                          const FilterBank* row_banks,
                          const FilterBank* col_banks, LineFilter& f);
void account_inverse_tree(int rows, int cols, const TransformConfig& config,
                          const FilterBank* row_banks,
                          const FilterBank* col_banks, LineFilter& f);

}  // namespace detail

}  // namespace vf::dwt
