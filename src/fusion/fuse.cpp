#include "src/fusion/fuse.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/fusion/fused_plan.h"

namespace vf::fusion {

namespace {

using image::ImageF;

// Always-on: the CMake default is Release, where a second frame smaller than
// the first would otherwise be read out of bounds.
void require_frame_pair(const ImageF& a, const ImageF& b, const char* where) {
  if (a.rows() < 1 || a.cols() < 1 || a.rows() != b.rows() ||
      a.cols() != b.cols()) {
    std::fprintf(stderr, "fatal: %s(%dx%d, %dx%d): frames must be non-empty "
                 "and the same size\n", where, a.rows(), a.cols(), b.rows(),
                 b.cols());
    std::abort();
  }
}

ImageF& band(dwt::LevelBands& lv, int which) {
  return which == 0 ? lv.lh : which == 1 ? lv.hl : lv.hh;
}

}  // namespace

image::ImageF fuse_frames(const image::ImageF& a, const image::ImageF& b,
                          const FuseConfig& config, dwt::LineFilter& filter) {
  require_frame_pair(a, b, "fuse_frames");
  return dwt::FusionPlan(a.rows(), a.cols(), config.transform).run(a, b, filter);
}

FusionOutcome fuse_frames_with_quality(const image::ImageF& a, const image::ImageF& b,
                                       const FuseConfig& config,
                                       dwt::LineFilter& filter) {
  FusionOutcome outcome;
  outcome.fused = fuse_frames(a, b, config, filter);
  outcome.quality = image::evaluate_fusion(a, b, outcome.fused);
  return outcome;
}

image::ImageF fuse_frames_dwt(const image::ImageF& a, const image::ImageF& b,
                              const DwtFuseConfig& config, dwt::LineFilter& filter) {
  require_frame_pair(a, b, "fuse_frames_dwt");
  const simd::KernelSet& k = filter.kernels();
  dwt::TreePyramid pa = dwt::forward_tree(a, config.transform, 0, 0, filter);
  dwt::TreePyramid pb = dwt::forward_tree(b, config.transform, 0, 0, filter);
  dwt::TreePyramid fused;
  const int levels = static_cast<int>(pa.levels.size());
  fused.levels.resize(levels);
  // Scratch sized for the largest (level-1) subband, reused across bands.
  const std::size_t max_n = levels > 0 ? pa.levels[0].lh.size() : 0;
  const std::vector<float> zeros(max_n, 0.0f);
  std::vector<float> mag_a(max_n), mag_b(max_n), out_im(max_n);
  for (int lv = 0; lv < levels; ++lv) {
    fused.levels[lv].in_rows = pa.levels[lv].in_rows;
    fused.levels[lv].in_cols = pa.levels[lv].in_cols;
    for (int sb = 0; sb < 3; ++sb) {
      const ImageF& ba = band(pa.levels[lv], sb);
      const ImageF& bb = band(pb.levels[lv], sb);
      const int n = static_cast<int>(ba.size());
      // Real coefficients: magnitude of (c, 0) is |c|.
      k.magnitude(ba.data(), zeros.data(), n, mag_a.data());
      filter.account_magnitude(n);
      k.magnitude(bb.data(), zeros.data(), n, mag_b.data());
      filter.account_magnitude(n);
      ImageF& out = band(fused.levels[lv], sb);
      out = ImageF(ba.rows(), ba.cols());
      k.select(ba.data(), zeros.data(), bb.data(), zeros.data(), mag_a.data(),
               mag_b.data(), n, out.data(), out_im.data());
      filter.account_select(n);
    }
  }
  // Lowpass residue: not time-accounted (no backend ever charged for it).
  fused.ll = ImageF(pa.ll.rows(), pa.ll.cols());
  k.average(pa.ll.data(), pb.ll.data(), static_cast<int>(pa.ll.size()),
            fused.ll.data());
  return dwt::inverse_tree(fused, config.transform, 0, 0, filter);
}

}  // namespace vf::fusion
