// Fixed-point format and datapath error bounds (ablation A7 machinery).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "src/common/rng.h"
#include "src/hw/fixed_point.h"
#include "src/fusion/fuse.h"
#include "src/image/metrics.h"
#include "src/sched/adaptive.h"

namespace {

using namespace vf;

TEST(FixedPointFormat, NamesAndRange) {
  const hw::FixedPointFormat fmt{18, 15};
  EXPECT_EQ(fmt.name(), "Q3.15");
  EXPECT_EQ(fmt.integer_bits(), 3);
  EXPECT_DOUBLE_EQ(fmt.step(), std::ldexp(1.0, -15));
  EXPECT_DOUBLE_EQ(fmt.min_value(), -4.0);
  EXPECT_NEAR(fmt.max_value(), 4.0, 2 * fmt.step());
}

TEST(FixedPointFormat, QuantizeRoundsAndSaturates) {
  const hw::FixedPointFormat fmt{12, 10};
  // Round to nearest step (step = 2^-10; 0.50049 sits above the midpoint).
  EXPECT_NEAR(fmt.quantize(0.50049), 513.0 * fmt.step(), 1e-12);
  EXPECT_NEAR(fmt.quantize(0.5002), 512.0 * fmt.step(), 1e-12);
  // Quantization error is at most half a step inside the range.
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_float(-1.9f, 1.9f);
    EXPECT_LE(std::fabs(fmt.quantize(v) - v), fmt.step() / 2 + 1e-12);
  }
  // Saturation at the rails.
  EXPECT_DOUBLE_EQ(fmt.quantize(100.0), fmt.max_value());
  EXPECT_DOUBLE_EQ(fmt.quantize(-100.0), fmt.min_value());
}

TEST(FixedPointFilter, RoundTripErrorBoundedByFormat) {
  // Full transform round trip through the fixed-point datapath: error should
  // be within a small multiple of the quantization step, per format.
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  const image::ImageF& img = pairs[0].visible;
  dwt::TransformConfig config;
  for (const hw::FixedPointFormat fmt : {hw::FixedPointFormat{24, 18},
                                         hw::FixedPointFormat{18, 15},
                                         hw::FixedPointFormat{16, 12}}) {
    dwt::KernelLineFilter filter(hw::fixed_point_kernels(fmt));
    const auto pyr = dwt::forward_dtcwt(img, config, filter);
    const image::ImageF rec = dwt::inverse_dtcwt(pyr, config, filter);
    double max_err = 0.0;
    for (std::size_t i = 0; i < img.size(); ++i) {
      max_err = std::max(max_err,
                         std::fabs(static_cast<double>(img.data()[i]) - rec.data()[i]));
    }
    // Error accumulates over 2 * levels cascaded quantized filterings.
    EXPECT_LT(max_err, 60.0 * fmt.step()) << fmt.name();
    EXPECT_GT(max_err, 0.0) << fmt.name();  // quantization is real
  }
}

TEST(FixedPointFilter, FidelityImprovesWithWordWidth) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  dwt::KernelLineFilter float_filter(simd::scalar_kernels());
  const fusion::FuseConfig config;
  const image::ImageF reference =
      fuse_frames(pairs[0].visible, pairs[0].thermal, config, float_filter);
  double last_psnr = 0.0;
  for (const hw::FixedPointFormat fmt :
       {hw::FixedPointFormat{12, 10}, hw::FixedPointFormat{18, 15},
        hw::FixedPointFormat{24, 18}}) {
    dwt::KernelLineFilter filter(hw::fixed_point_kernels(fmt), HostConfig{2});
    const image::ImageF fused =
        fuse_frames(pairs[0].visible, pairs[0].thermal, config, filter);
    const double p = image::psnr(reference, fused);
    EXPECT_GT(p, last_psnr) << fmt.name();
    last_psnr = p;
  }
  // 24-bit is effectively transparent.
  EXPECT_GT(last_psnr, 60.0);
}

// --- golden hashes ------------------------------------------------------------
//
// Pinned on the last tree where the fixed-point datapath was a serial-only
// LineFilter on a per-line staged path (x86-64, no FMA contraction): the
// KernelSet flavour must reproduce it bit for bit through the fused plan,
// the tiled transforms and the pool.

std::uint64_t fnv1a(const image::ImageF& img, std::uint64_t h = 1469598103934665603ull) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(img.data());
  for (std::size_t i = 0; i < img.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Ablation A7's fused images: every format it reports, at 88x72.
TEST(FixedPointFilter, A7FusedImagesMatchGoldenHashes) {
  struct Golden {
    hw::FixedPointFormat fmt;
    std::uint64_t hash;
  };
  const Golden goldens[] = {{{32, 24}, 0x31a1c602b94fda9cull},
                            {{24, 18}, 0x663ece924e04e4f6ull},
                            {{18, 15}, 0x4fe0d12a5b360f46ull},
                            {{16, 14}, 0xc12a1a658b4875dcull},
                            {{12, 10}, 0x1639b2bc38714ff1ull}};
  const auto pairs = sched::make_sweep_frames({88, 72}, 1);
  for (const Golden& g : goldens) {
    for (int threads : {1, 4}) {
      dwt::KernelLineFilter filter(hw::fixed_point_kernels(g.fmt), HostConfig{threads});
      EXPECT_EQ(fnv1a(fusion::fuse_frames(pairs[0].visible, pairs[0].thermal, {}, filter)),
                g.hash)
          << g.fmt.name() << " threads=" << threads;
    }
  }
}

// The fixed-point datapath through a frame whose level 0 runs in two
// stripes, at several pool widths (under TSan, this is where a column call
// reading past its stripe's window would race). Pinned on the tree before
// the stripe walk existed.
TEST(FixedPointFilter, MultiStripeFusedImageMatchesGoldenHash) {
  const auto pairs = sched::make_sweep_frames({640, 64}, 1);
  for (int threads : {1, 2, 4}) {
    dwt::KernelLineFilter filter(hw::fixed_point_kernels({16, 14}), HostConfig{threads});
    const std::uint64_t h =
        fnv1a(fusion::fuse_frames(pairs[0].visible, pairs[0].thermal, {}, filter));
    EXPECT_EQ(h, 0x71eb3e968db7553cull) << "threads=" << threads << " " << std::hex << h;
  }
}

// Standalone forward_dtcwt (every band of every tree) and inverse_dtcwt
// round trips, for every supported format.
TEST(FixedPointFilter, RoundTripsMatchGoldenHashes) {
  struct Golden {
    hw::FixedPointFormat fmt;
    std::uint64_t bands, rec;
  };
  const Golden goldens[] = {
      {{32, 24}, 0x5327dd410c9ff61aull, 0xc4cb9e1efa450de3ull},
      {{24, 18}, 0x0e11608c42db1a75ull, 0xcd339c42bf21638bull},
      {{18, 15}, 0x6cc1afdc1e059a47ull, 0x8607a08b54e2becfull},
      {{16, 14}, 0x04118e8ea16c2c98ull, 0x408e78ce1185e7fcull},
      {{16, 12}, 0xc450301d0f65bf8full, 0x003f6647f12f9ca7ull},
      {{12, 10}, 0x51efadfca5ef705cull, 0xa56e77a2e9797580ull}};
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  const dwt::TransformConfig config;
  for (const Golden& g : goldens) {
    for (int threads : {1, 4}) {
      dwt::KernelLineFilter filter(hw::fixed_point_kernels(g.fmt), HostConfig{threads});
      const auto pyr = dwt::forward_dtcwt(pairs[0].visible, config, filter);
      std::uint64_t h = 1469598103934665603ull;
      for (const dwt::TreePyramid& tree : pyr.tree) {
        for (const dwt::LevelBands& lv : tree.levels) {
          h = fnv1a(lv.lh, h);
          h = fnv1a(lv.hl, h);
          h = fnv1a(lv.hh, h);
        }
        h = fnv1a(tree.ll, h);
      }
      EXPECT_EQ(h, g.bands) << g.fmt.name() << " threads=" << threads;
      EXPECT_EQ(fnv1a(dwt::inverse_dtcwt(pyr, config, filter)), g.rec)
          << g.fmt.name() << " threads=" << threads;
    }
  }
}

TEST(FixedPointKernelsDeathTest, RejectsUnsupportedFormats) {
  EXPECT_DEATH(hw::fixed_point_kernels({20, 16}), "no fixed-point KernelSet for Q4.16");
}

}  // namespace
