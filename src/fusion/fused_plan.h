// Band-streaming fused execution plan for the host fusion hot path.
//
// A staged fusion (forward_dtcwt of each frame, a magnitude/select pass,
// inverse_dtcwt) runs four full-image passes and materializes two complete
// DtcwtPyramids in between, so every band plane crosses DRAM several times. The paper's PL engine wins precisely by not doing that: it
// streams lines through a fused analyze→fuse→synthesize datapath. FusionPlan
// is the host-side equivalent:
//
//   * the two frames' transforms run band-by-band, interleaved: level L of
//     frame A and frame B are produced back-to-back (per kLineBlock column
//     window) and consumed immediately by the magnitude/select rule while
//     still hot in cache — the second pyramid is never materialized;
//   * the forward column pass and the complex magnitude are one kernel
//     (KernelSet::analyze_mag_ml), and at the deepest level the select rule
//     is deferred into the inverse synthesis read (select_synth_ml), so the
//     pass count over band data drops from ~10 to ~3 per frame pair;
//   * every plane stays row-major end to end and the plan has no
//     transposes: the column passes run lane-interleaved (kernels.h) over
//     blocks of kLineBlock image columns, reading each column's periodic
//     extension straight out of an extended row-pass plane (the row pass
//     output with its wrapped rows copied above and below) and writing the
//     row-major band planes; the lowpass plane is padded in place for the
//     next level, and the inverse reads the deeper level's reconstruction
//     by stride;
//   * all scratch comes from the per-thread arena.
//
// FusionPlan is the only implementation of fuse_frames and of the timed
// runners' frame pair, for every KernelSet (float flavours and the fixed-
// point datapath alike). Bit-identity with the staged transforms is by
// construction, not by tolerance: every line sees the same extended samples
// and every output is computed in the scalar kernels' order (lane-
// interleaved kernels vectorize across lines, not along them — see
// kernels.h), the reconstruction accumulates trees in the same order, and
// the filter's account_*/barrier() bookkeeping is replayed serially
// afterwards in the canonical staged sequence (forward A trees 0-3, forward
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

  // Aborts (in every build type) on empty dims or fewer than one level.
  FusionPlan(int rows, int cols, const TransformConfig& config);

  // Fuse one frame pair. Numerics first (pool-parallel over line blocks when
  // the filter has a pool), then the serial accounting replay. Frames that
  // do not match the plan's dims abort with a message in every build type.
  image::ImageF run(const image::ImageF& a, const image::ImageF& b,
                    LineFilter& filter, const StageHooks& hooks = {}) const;

  // Estimated DRAM traffic per frame pair, derived from the pass structure
  // (each plane-sized read/write a pass makes, x4 bytes; block scratch that
  // stays cache-resident is not charged). `staged_bytes` models a staged
  // fusion over the tiled transforms, `fused_bytes` this plan; `flops` counts the transform MACs (x2)
  // plus the fusion-rule ops, for arithmetic-intensity reporting in
  // bench_pipeline --json. `fused_bytes` still charges the plane transposes
  // the plan ran before its column passes went lane-interleaved; it is kept
  // as is so the drift-gated transform_traffic baseline does not move.
  struct Traffic {
    double staged_bytes = 0.0;
    double fused_bytes = 0.0;
    double flops = 0.0;
  };
  Traffic estimate_traffic() const;

 private:
  struct LevelDims {
    int r, c;    // pre-padding input dims of this level
    int rp, cp;  // padded (even) dims
    int hr, hc;  // subband dims (rp/2, cp/2)
    int bs;      // row stride of the band planes: the next level's cp
                 // (hc at the deepest level)
    int lead;      // extended row-pass planes: row pass output starts here,
    int ext_rows;  // rows in all, including the periodic extension;
    int skip[2];   // first row the column bank of tree t reads
    int strip;     // column-pass output rows per strip
  };

  int rows_ = 0, cols_ = 0;
  TransformConfig config_;
  std::vector<LevelDims> dims_;            // [level]
  std::vector<FilterBank> row_banks_[2];   // [tree][level]
  std::vector<FilterBank> col_banks_[2];   // [tree][level]
};

}  // namespace vf::dwt
