// Coefficient-domain fusion of two frames (visible + thermal).
//
// The rule is the paper's maximum-magnitude selection: for every complex
// DT-CWT coefficient pair, keep the coefficient from whichever input frame
// has the larger magnitude (salient features win), and average the coarse
// lowpass residuals. The plain-DWT variant applies the same rule to real
// coefficients and exists for the algorithms ablation.
#pragma once

#include "src/fusion/dwt_fusion.h"
#include "src/image/metrics.h"

namespace vf::fusion {

struct FuseConfig {
  dwt::TransformConfig transform;
};

struct DwtFuseConfig {
  dwt::TransformConfig transform;
};

struct FusionOutcome {
  image::ImageF fused;
  image::FusionQuality quality;
};

// DT-CWT max-magnitude fusion (the paper's pipeline), run by the band-
// streaming dwt::FusionPlan. All transform lines and fusion-rule kernels
// take their numerics from `filter.kernels()` and report to its account_*
// hooks, so backends can account modeled time and MACs. Empty frames, frames
// of different sizes (as in fuse_frames_dwt), or transform.levels < 1 abort
// with a message in every build type.
image::ImageF fuse_frames(const image::ImageF& a, const image::ImageF& b,
                          const FuseConfig& config, dwt::LineFilter& filter);

FusionOutcome fuse_frames_with_quality(const image::ImageF& a, const image::ImageF& b,
                                       const FuseConfig& config,
                                       dwt::LineFilter& filter);

// Critically sampled single-tree DWT baseline.
image::ImageF fuse_frames_dwt(const image::ImageF& a, const image::ImageF& b,
                              const DwtFuseConfig& config, dwt::LineFilter& filter);

}  // namespace vf::fusion
