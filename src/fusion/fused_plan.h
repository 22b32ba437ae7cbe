// Band-streaming fused execution plan for the host fusion hot path.
//
// A staged fusion (forward_dtcwt of each frame, a magnitude/select pass,
// inverse_dtcwt) materializes two complete DtcwtPyramids in between, so
// every band plane crosses DRAM several times. The paper's PL engine wins
// precisely by not doing that: it streams lines through a fused
// analyze→fuse→synthesize datapath. FusionPlan is the host-side equivalent,
// built on the same lane-interleaved passes as the standalone transforms
// (dwt_fusion.h, detail::):
//
//   * the two frames' transforms run band-by-band, interleaved: level L of
//     frame A and frame B are produced back-to-back (per kLineBlock column
//     window) and consumed immediately by the magnitude/select rule while
//     still hot in cache — the second pyramid is never materialized;
//   * the forward column pass and the complex magnitude are one kernel
//     (KernelSet::analyze_mag_ml), and at the deepest level the select rule
//     is deferred into the inverse synthesis read (select_synth_ml), so the
//     pass count over band data drops from ~10 to ~3 per frame pair;
//   * the level-0 row passes are shared by both complex pairs, and the
//     inverse reads each deeper level's reconstruction in place by stride;
//   * all scratch comes from the per-thread arena.
//
// FusionPlan is the only implementation of fuse_frames and of the timed
// runners' frame pair, for every KernelSet (float flavours and the fixed-
// point datapath alike). Bit-identity with a staged fusion is by
// construction, not by tolerance: every line sees the same extended samples
// and every output is computed in the scalar kernels' order (lane-
// interleaved kernels vectorize across lines, not along them — see
// kernels.h), the reconstruction accumulates trees in the same order, and
// the filter's account_*/barrier() bookkeeping is a separate serial replay
// (account()) in the canonical staged sequence (forward A trees 0-3, forward
// B trees 0-3, fusion pair/level/subband, inverse trees 0-3). The scalar
// reference in tests/dtcwt_oracle.h pins the numerics. StageHooks let a
// timed runner interleave its phase transitions with that replay.
#pragma once

#include <functional>
#include <vector>

#include "src/fusion/dwt_fusion.h"

namespace vf::dwt {

class FusionPlan {
 public:
  // Callbacks fired between the replay stages (never during the numerics,
  // which make no filter calls besides kernels()). A timed runner hangs its
  // backend phase transitions here so the modeled call sequence —
  // set_phase(forward), forward accounting, set_phase(fusion), ... — keeps
  // each account_* call inside the phase it is charged to.
  struct StageHooks {
    std::function<void()> before_forward;
    std::function<void()> before_fusion;
    std::function<void()> before_inverse;
  };

  // Aborts (in every build type) on empty dims, fewer than one level, or
  // tree-A and tree-B banks of a level that disagree on taps() or
  // synth_taps() (one lane-interleaved call filters both trees).
  FusionPlan(int rows, int cols, const TransformConfig& config);

  int rows() const { return t_.dims[0].r; }
  int cols() const { return t_.dims[0].c; }

  // Fuse one frame pair: the numerics only, pool-parallel over line blocks
  // when the filter has a pool; the filter's kernels() and pool() are its
  // only calls. Frames that do not match the plan's dims abort with a message
  // in every build type.
  image::ImageF run(const image::ImageF& a, const image::ImageF& b,
                    LineFilter& filter) const;

  // The serial accounting replay of one frame pair of the plan's dims: every
  // account_*/barrier() call, in the canonical staged order, with the hooks
  // fired between the stages. It depends on the dims alone, so a caller may
  // replay it once and reuse the result (TimedFusionRunner's frame memo);
  // fuse_frames runs it after every run().
  void account(LineFilter& filter, const StageHooks& hooks = {}) const;

  // Estimated DRAM traffic per frame pair, derived from the pass structure
  // (each plane-sized read/write a pass makes, x4 bytes; block scratch that
  // stays cache-resident is not charged). `staged_bytes` models a staged
  // fusion whose transforms transpose every plane around their column
  // passes; `fused_bytes` this plan; `flops` counts the transform MACs (x2)
  // plus the fusion-rule ops, for arithmetic-intensity reporting in
  // bench_pipeline --json. Both byte models still charge plane transposes no
  // host path runs any more; they are kept unchanged so the drift-gated
  // transform_traffic baseline does not move.
  struct Traffic {
    double staged_bytes = 0.0;
    double fused_bytes = 0.0;
    double flops = 0.0;
  };
  Traffic estimate_traffic() const;

 private:
  detail::TransformLevels t_;
  // Per level: the row stride of the band planes (the next level's cp, so
  // the inverse reads the deeper reconstruction at the bands' stride; hc at
  // the deepest level), and the column-pass output rows per strip.
  std::vector<int> bs_, strip_;
};

}  // namespace vf::dwt
