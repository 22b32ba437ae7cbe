// Behavior of the fusion rules (DT-CWT, plain DWT, Laplacian).
#include <gtest/gtest.h>

#include <cmath>

#include "src/fusion/fuse.h"
#include "src/fusion/fused_plan.h"
#include "src/fusion/laplacian.h"
#include "src/sched/adaptive.h"

namespace {

using namespace vf;
using image::ImageF;

double max_abs_diff(const ImageF& a, const ImageF& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]));
  }
  return m;
}

TEST(Fusion, FusingAFrameWithItselfReturnsTheFrame) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  const ImageF& img = pairs[0].visible;
  dwt::KernelLineFilter filter(simd::scalar_kernels());
  const ImageF fused = fuse_frames(img, img, fusion::FuseConfig{}, filter);
  // Identical inputs -> selection is a no-op -> transform round trip.
  EXPECT_LT(max_abs_diff(img, fused), 1e-4);
}

TEST(Fusion, FusedFrameCarriesTargetAndSceneContent) {
  const auto pairs = sched::make_sweep_frames({88, 72}, 1);
  const ImageF& vis = pairs[0].visible;
  const ImageF& ir = pairs[0].thermal;
  dwt::KernelLineFilter filter(simd::scalar_kernels());
  const fusion::FusionOutcome outcome =
      fuse_frames_with_quality(vis, ir, fusion::FuseConfig{}, filter);
  // The fused frame must be more informative about BOTH inputs than either
  // input is about the other.
  const double cross = image::mutual_information(vis, ir);
  EXPECT_GT(image::mutual_information(outcome.fused, vis), cross);
  EXPECT_GT(image::mutual_information(outcome.fused, ir), cross);
  EXPECT_GT(outcome.quality.qabf, 0.3);
  EXPECT_GT(outcome.quality.entropy_fused, 3.0);
}

TEST(Fusion, DwtBaselineRunsAndPreservesSelfFusion) {
  const auto pairs = sched::make_sweep_frames({35, 35}, 1);
  const ImageF& img = pairs[0].visible;
  dwt::KernelLineFilter filter(simd::scalar_kernels());
  const ImageF fused = fuse_frames_dwt(img, img, fusion::DwtFuseConfig{}, filter);
  EXPECT_LT(max_abs_diff(img, fused), 1e-4);
}

TEST(Fusion, DtcwtUsesFourTimesTheDwtTransformWork) {
  const auto pairs = sched::make_sweep_frames({64, 48}, 1);
  dwt::KernelLineFilter f_dwt(simd::scalar_kernels()), f_dtcwt(simd::scalar_kernels());
  fuse_frames_dwt(pairs[0].visible, pairs[0].thermal, fusion::DwtFuseConfig{}, f_dwt);
  fuse_frames(pairs[0].visible, pairs[0].thermal, fusion::FuseConfig{}, f_dtcwt);
  EXPECT_EQ(4 * f_dwt.stats().total_macs(), f_dtcwt.stats().total_macs());
}

TEST(Fusion, LaplacianSelfFusionIsNearIdentity) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  const ImageF& img = pairs[0].visible;
  const ImageF fused =
      fusion::fuse_frames_laplacian(img, img, fusion::LaplacianFuseConfig{});
  // The Laplacian pyramid is exactly invertible when built/collapsed with the
  // same kernels; max-abs of identical inputs keeps the detail intact.
  EXPECT_LT(max_abs_diff(img, fused), 1e-4);
}

TEST(Fusion, BackendsProduceIdenticalFusedOutput) {
  const auto pairs = sched::make_sweep_frames({35, 35}, 1);
  sched::ArmBackend arm;
  sched::FpgaBackend fpga;
  sched::AdaptiveBackend adaptive;
  sched::TimedFusionRunner ra(arm), rf(fpga), rx(adaptive);
  const auto a = ra.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  const auto f = rf.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  const auto x = rx.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  EXPECT_EQ(0.0, max_abs_diff(a.fused, f.fused));
  EXPECT_EQ(0.0, max_abs_diff(a.fused, x.fused));
}

// The CMake default is Release, so these checks must hold without assert: a
// second frame smaller than the first, an empty pair, or a frame that does
// not match a plan's dims would otherwise be read out of bounds. Frame pairs
// always run the fused plan, so a zero-level transform is refused at both
// frame-pair entry points too.
TEST(FuseFramesDeathTest, RejectsMismatchedOrEmptyFramesInEveryBuild) {
  const ImageF a(8, 8, 0.5f), narrow(8, 6, 0.5f), empty;
  dwt::KernelLineFilter filter(simd::simd_kernels());
  EXPECT_DEATH(fuse_frames(a, narrow, fusion::FuseConfig{}, filter), "fuse_frames");
  EXPECT_DEATH(fuse_frames(narrow, a, fusion::FuseConfig{}, filter), "fuse_frames");
  EXPECT_DEATH(fuse_frames(empty, empty, fusion::FuseConfig{}, filter),
               "fuse_frames");
  EXPECT_DEATH(fuse_frames_dwt(a, narrow, fusion::DwtFuseConfig{}, filter),
               "fuse_frames_dwt");
  const dwt::FusionPlan plan(8, 8, dwt::TransformConfig{});
  EXPECT_DEATH(plan.run(a, narrow, filter), "FusionPlan::run");
  EXPECT_DEATH(plan.run(narrow, narrow, filter), "FusionPlan::run");
  EXPECT_DEATH(dwt::FusionPlan(0, 8, dwt::TransformConfig{}), "FusionPlan");
  fusion::FuseConfig flat;
  flat.transform.levels = 0;
  EXPECT_DEATH(fuse_frames(a, a, flat, filter), "FusionPlan\\(8x8, 0 levels\\)");
  fusion::DwtFuseConfig flat_dwt;
  flat_dwt.transform.levels = 0;
  EXPECT_DEATH(fuse_frames_dwt(a, a, flat_dwt, filter),
               "fuse_frames_dwt\\(8x8, 0 levels\\)");
  sched::NeonBackend neon;
  sched::TimedFusionRunner runner(neon, flat);
  EXPECT_DEATH(runner.run_frame_pair(a, a), "FusionPlan\\(8x8, 0 levels\\)");
  // Matching frames still fuse.
  EXPECT_EQ(plan.run(a, a, filter).cols(), 8);
}

}  // namespace
