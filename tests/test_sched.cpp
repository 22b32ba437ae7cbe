// Scheduler behavior: the paper's crossovers and the adaptive router.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <string>

#include "src/sched/adaptive.h"
#include "src/sched/calibrate.h"

namespace {

using namespace vf;

TEST(FrameSweep, PaperSizesAndLabels) {
  const auto sizes = sched::paper_frame_sizes();
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_EQ(sizes.front().label(), "32x24");
  EXPECT_EQ(sizes.back().label(), "88x72");
}

TEST(FrameSweep, FramesAreDeterministicAndInRange) {
  const auto a = sched::make_sweep_frames({40, 40}, 2);
  const auto b = sched::make_sweep_frames({40, 40}, 2);
  ASSERT_EQ(a.size(), 2u);
  for (std::size_t f = 0; f < a.size(); ++f) {
    for (std::size_t i = 0; i < a[f].visible.size(); ++i) {
      EXPECT_EQ(a[f].visible.data()[i], b[f].visible.data()[i]);
      EXPECT_GE(a[f].visible.data()[i], 0.0f);
      EXPECT_LE(a[f].visible.data()[i], 1.0f);
    }
  }
  // Consecutive frames differ (the thermal target drifts).
  double diff = 0.0;
  for (std::size_t i = 0; i < a[0].thermal.size(); ++i) {
    diff += std::abs(a[0].thermal.data()[i] - a[1].thermal.data()[i]);
  }
  EXPECT_GT(diff, 1.0);
}

// Pins the synthetic scene bit for bit (pinned before the per-row and
// per-column texture terms were tabulated), at both fleet frame sizes and an
// odd one.
TEST(FrameSweep, FramesMatchGoldenHashes) {
  const struct {
    sched::FrameSize size;
    int count;
    std::uint64_t hash;
  } goldens[] = {
      {{88, 72}, 32, 0x4c4e07780a55c09cull},
      {{32, 24}, 32, 0xc561403d0eb91409ull},
      {{17, 9}, 3, 0x88e927d2d09bb328ull},
  };
  for (const auto& g : goldens) {
    std::uint64_t h = 1469598103934665603ull;
    for (const sched::FramePair& p : sched::make_sweep_frames(g.size, g.count)) {
      for (const image::ImageF* img : {&p.visible, &p.thermal}) {
        const auto* bytes = reinterpret_cast<const unsigned char*>(img->data());
        for (std::size_t i = 0; i < img->size() * sizeof(float); ++i) {
          h ^= bytes[i];
          h *= 1099511628211ull;
        }
      }
    }
    EXPECT_EQ(h, g.hash) << g.size.label() << " 0x" << std::hex << h;
  }
}

TEST(Probe, DeterministicModeledTimes) {
  sched::NeonBackend b1, b2;
  const auto r1 = sched::probe_backend(b1, {35, 35}, 2);
  const auto r2 = sched::probe_backend(b2, {35, 35}, 2);
  EXPECT_DOUBLE_EQ(r1.total.sec(), r2.total.sec());
  EXPECT_DOUBLE_EQ(r1.energy_mj, r2.energy_mj);
  EXPECT_GT(r1.forward.sec(), 0.0);
  EXPECT_GT(r1.inverse.sec(), 0.0);
}

// The runner keeps its FusionPlan across frame pairs and rebuilds it only
// when the dims change: alternating sizes on one runner must match a fresh
// runner per pair (on a twin backend carrying the same state) bit for bit.
TEST(Probe, KeptPlanMatchesFreshRunnersAcrossSizeChanges) {
  const auto big = sched::make_sweep_frames({88, 72}, 2);
  const auto small = sched::make_sweep_frames({33, 25}, 2);
  const sched::BackendKind kinds[] = {
      sched::BackendKind::kArm, sched::BackendKind::kNeon,
      sched::BackendKind::kFpga, sched::BackendKind::kFpgaBatched,
      sched::BackendKind::kAdaptive};
  auto same_times = [](const sched::StageTimes& x, const sched::StageTimes& y) {
    return x.prep == y.prep && x.forward == y.forward && x.fusion == y.fusion &&
           x.inverse == y.inverse;
  };
  for (const sched::BackendKind kind : kinds) {
    const auto kept_backend = sched::make_backend(kind, sched::RunConfig{});
    const auto fresh_backend = sched::make_backend(kind, sched::RunConfig{});
    sched::TimedFusionRunner kept(*kept_backend);
    for (int i = 0; i < 4; ++i) {
      const sched::FramePair& pair = (i % 2 ? small : big)[i / 2];
      const auto got = kept.run_frame_pair(pair.visible, pair.thermal);
      const auto want = sched::TimedFusionRunner(*fresh_backend)
                            .run_frame_pair(pair.visible, pair.thermal);
      const std::string at =
          std::string(sched::backend_name(kind)) + " pair " + std::to_string(i);
      ASSERT_EQ(got.fused.size(), want.fused.size()) << at;
      EXPECT_EQ(0, std::memcmp(got.fused.data(), want.fused.data(),
                               got.fused.size() * sizeof(float)))
          << at;
      EXPECT_TRUE(same_times(got.times, want.times)) << at;
      EXPECT_TRUE(same_times(got.pl_times, want.pl_times)) << at;
    }
  }
}

TEST(Crossover, NeonWinsBelowFpgaWinsAbove) {
  // The paper's Fig. 9 break point sits between 35x35 and 40x40.
  sched::NeonBackend neon_s, neon_l;
  sched::FpgaBackend fpga_s, fpga_l;
  const auto ns = sched::probe_backend(neon_s, {35, 35}, 4);
  const auto fs = sched::probe_backend(fpga_s, {35, 35}, 4);
  EXPECT_LT(ns.total.sec(), fs.total.sec()) << "NEON must win below the break point";
  const auto nl = sched::probe_backend(neon_l, {88, 72}, 4);
  const auto fl = sched::probe_backend(fpga_l, {88, 72}, 4);
  EXPECT_LT(fl.total.sec(), nl.total.sec()) << "FPGA must win above the break point";
}

TEST(Crossover, EnergyBreakPointIsLaterThanTimeBreakPoint) {
  // At 40x40 the FPGA already wins on time but its +19.2 mW static draw
  // keeps NEON ahead on energy (paper: energy break between 40x40 and 64x48).
  sched::NeonBackend neon40, neon64;
  sched::FpgaBackend fpga40, fpga64;
  const auto n40 = sched::probe_backend(neon40, {40, 40}, 4);
  const auto f40 = sched::probe_backend(fpga40, {40, 40}, 4);
  EXPECT_LT(f40.total.sec(), n40.total.sec());
  EXPECT_LT(n40.energy_mj, f40.energy_mj);
  const auto n64 = sched::probe_backend(neon64, {64, 48}, 4);
  const auto f64 = sched::probe_backend(fpga64, {64, 48}, 4);
  EXPECT_LT(f64.energy_mj, n64.energy_mj);
}

TEST(Crossover, FpgaAndAdaptiveEnergyBeatArmAtFullFrame) {
  sched::ArmBackend arm;
  sched::FpgaBackend fpga;
  sched::AdaptiveBackend adaptive;
  const auto ra = sched::probe_backend(arm, {88, 72}, 4);
  const auto rf = sched::probe_backend(fpga, {88, 72}, 4);
  const auto rx = sched::probe_backend(adaptive, {88, 72}, 4);
  EXPECT_LT(rf.energy_mj, ra.energy_mj);
  EXPECT_LT(rx.energy_mj, ra.energy_mj);
}

TEST(Adaptive, RoutesAllLinesToNeonBelowTheCrossover) {
  sched::AdaptiveBackend backend;  // calibrated default threshold
  sched::probe_backend(backend, {32, 24}, 2);
  EXPECT_EQ(backend.router().lines_on_fpga(), 0);
  EXPECT_GT(backend.router().lines_on_simd(), 0);
}

TEST(Adaptive, RoutesLongLinesToFpgaAboveTheCrossover) {
  sched::AdaptiveBackend backend;
  sched::probe_backend(backend, {88, 72}, 2);
  EXPECT_GT(backend.router().lines_on_fpga(), 0);
  // Deep-level short lines stay on NEON.
  EXPECT_GT(backend.router().lines_on_simd(), 0);
}

TEST(Adaptive, NeverWorseThanBestStaticAcrossTheSweep) {
  for (const sched::FrameSize& size : sched::paper_frame_sizes()) {
    sched::NeonBackend neon;
    sched::FpgaBackend fpga;
    sched::AdaptiveBackend adaptive;
    const auto rn = sched::probe_backend(neon, size, 2);
    const auto rf = sched::probe_backend(fpga, size, 2);
    const auto rx = sched::probe_backend(adaptive, size, 2);
    const double best = std::min(rn.total.sec(), rf.total.sec());
    EXPECT_LE(rx.total.sec(), best * 1.005) << size.label();
  }
}

TEST(Adaptive, BeatsStaticFpgaAtFullFrame) {
  sched::FpgaBackend fpga;
  sched::AdaptiveBackend adaptive;
  const auto rf = sched::probe_backend(fpga, {88, 72}, 2);
  const auto rx = sched::probe_backend(adaptive, {88, 72}, 2);
  EXPECT_LT(rx.total.sec(), rf.total.sec());
}

TEST(Adaptive, ThresholdExtremesMatchStaticEngines) {
  sched::RunConfig all_fpga;
  all_fpga.adaptive_threshold_samples = 0;
  sched::AdaptiveBackend bx(all_fpga);
  sched::FpgaBackend bf;
  const auto rx = sched::probe_backend(bx, {64, 48}, 2);
  const auto rf = sched::probe_backend(bf, {64, 48}, 2);
  EXPECT_NEAR(rx.forward.sec(), rf.forward.sec(), 1e-12);
  EXPECT_NEAR(rx.inverse.sec(), rf.inverse.sec(), 1e-12);

  sched::RunConfig all_neon;
  all_neon.adaptive_threshold_samples = 1 << 20;
  sched::AdaptiveBackend bn(all_neon);
  sched::NeonBackend neon;
  const auto rn1 = sched::probe_backend(bn, {64, 48}, 2);
  const auto rn2 = sched::probe_backend(neon, {64, 48}, 2);
  EXPECT_NEAR(rn1.forward.sec(), rn2.forward.sec(), 1e-12);
}

TEST(Calibrate, PicksAMidRangeThreshold) {
  const auto cal =
      sched::calibrate_adaptive_threshold(sched::CrossoverMetric::kTotalTime, {}, 1);
  // All-FPGA and all-NEON must both lose to a mixed routing.
  EXPECT_GT(cal.best_threshold, 0);
  EXPECT_LT(cal.best_threshold, 1 << 20);
  ASSERT_EQ(cal.candidates.size(), cal.costs.size());
}

}  // namespace
