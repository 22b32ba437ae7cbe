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
  const dwt::FusionPlan plan(a.rows(), a.cols(), config.transform);
  image::ImageF fused = plan.run(a, b, filter);
  plan.account(filter);
  return fused;
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
  const dwt::detail::TransformLevels t(a.rows(), a.cols(), config.transform,
                                       "fuse_frames_dwt");
  const simd::KernelSet& k = filter.kernels();
  // Numerics first: both frames' trees as the two sides of each lane call.
  dwt::TreePyramid pa, pb;
  dwt::detail::forward_tree_pair(t, a, b, 0, 0, k, filter.pool(), &pa, &pb);
  dwt::TreePyramid fused;
  const int levels = t.levels();
  fused.levels.resize(levels);
  // Scratch sized for the largest (level-1) subband, reused across bands.
  const std::size_t max_n = pa.levels[0].lh.size();
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
      k.magnitude(bb.data(), zeros.data(), n, mag_b.data());
      ImageF& out = band(fused.levels[lv], sb);
      out = ImageF(ba.rows(), ba.cols());
      k.select(ba.data(), zeros.data(), bb.data(), zeros.data(), mag_a.data(),
               mag_b.data(), n, out.data(), out_im.data());
    }
  }
  // Lowpass residue: not time-accounted (no backend ever charged for it).
  fused.ll = ImageF(pa.ll.rows(), pa.ll.cols());
  k.average(pa.ll.data(), pb.ll.data(), static_cast<int>(pa.ll.size()),
            fused.ll.data());
  ImageF out = dwt::detail::inverse_tree_numerics(t, fused, 0, 0, k, filter.pool());

  // Then the serial accounting replay, in the staged call order.
  for (int frame = 0; frame < 2; ++frame) {
    dwt::detail::account_forward_tree(t, 0, 0, filter);
  }
  for (const dwt::detail::LevelDims& d : t.dims) {
    for (int sb = 0; sb < 3; ++sb) {
      filter.account_magnitude(d.hr * d.hc);
      filter.account_magnitude(d.hr * d.hc);
      filter.account_select(d.hr * d.hc);
    }
  }
  dwt::detail::account_inverse_tree(t, 0, 0, filter);
  return out;
}

}  // namespace vf::fusion
