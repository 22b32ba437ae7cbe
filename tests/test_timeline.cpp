// Event-queue timeline, batched double buffering, and frame pipelining.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/timeline.h"
#include "src/hw/driver.h"
#include "src/sched/pipeline.h"

namespace {

using namespace vf;

// --- Timeline substrate -----------------------------------------------------

TEST(Timeline, GreedyEarliestStartScheduling) {
  Timeline tl;
  std::vector<Timeline::Event> log;
  tl.set_event_log(&log);
  const ResourceId a = tl.add_resource("A");
  const ResourceId b = tl.add_resource("B");

  const auto e1 = tl.schedule(a, "x", SimDuration::zero(), SimDuration::milliseconds(2));
  EXPECT_DOUBLE_EQ(e1.start.sec(), 0.0);
  EXPECT_DOUBLE_EQ(e1.end.ms(), 2.0);

  // Same resource: serializes after e1 even though ready = 0.
  const auto e2 = tl.schedule(a, "y", SimDuration::zero(), SimDuration::milliseconds(1));
  EXPECT_DOUBLE_EQ(e2.start.ms(), 2.0);

  // Other resource: free at 0, but the ready dependency delays the start.
  const auto e3 = tl.schedule(b, "z", SimDuration::milliseconds(5),
                              SimDuration::milliseconds(1));
  EXPECT_DOUBLE_EQ(e3.start.ms(), 5.0);

  EXPECT_DOUBLE_EQ(tl.makespan().ms(), 6.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(a).ms(), 3.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(b).ms(), 1.0);
  EXPECT_EQ(log.size(), 3u);
}

TEST(Timeline, BusyIntervalsMergeOverlapAcrossResources) {
  Timeline tl;
  const ResourceId a = tl.add_resource("A");
  const ResourceId b = tl.add_resource("B");
  tl.schedule(a, "x", SimDuration::zero(), SimDuration::milliseconds(10));
  tl.schedule(b, "y", SimDuration::milliseconds(5), SimDuration::milliseconds(10));
  tl.schedule(a, "z", SimDuration::milliseconds(30), SimDuration::milliseconds(5));

  const auto merged = tl.busy_intervals({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].first.ms(), 0.0);
  EXPECT_DOUBLE_EQ(merged[0].second.ms(), 15.0);  // [0,10) and [5,15) coalesce
  EXPECT_DOUBLE_EQ(merged[1].first.ms(), 30.0);
  EXPECT_DOUBLE_EQ(merged[1].second.ms(), 35.0);

  // Single-resource view leaves the gap visible.
  const auto only_a = tl.busy_intervals({a});
  ASSERT_EQ(only_a.size(), 2u);
  EXPECT_DOUBLE_EQ(only_a[0].second.ms(), 10.0);
}

TEST(Timeline, DeterministicAcrossRepeatedConstruction) {
  // The ctest suite runs with -j: identical schedules must produce identical
  // timelines regardless of what else runs concurrently. Everything is pure
  // function of the inputs — no clocks, no globals.
  auto build = [](std::vector<Timeline::Event>* log) {
    Timeline tl;
    tl.set_event_log(log);
    const ResourceId a = tl.add_resource("A");
    const ResourceId b = tl.add_resource("B");
    for (int i = 0; i < 100; ++i) {
      tl.schedule(i % 2 ? a : b, "e", SimDuration::microseconds(i * 3),
                  SimDuration::microseconds(7 + i % 5));
    }
    return tl;
  };
  std::vector<Timeline::Event> log1, log2;
  const Timeline t1 = build(&log1);
  const Timeline t2 = build(&log2);
  ASSERT_EQ(log1.size(), log2.size());
  for (std::size_t i = 0; i < log1.size(); ++i) {
    EXPECT_EQ(log1[i].start.sec(), log2[i].start.sec());
    EXPECT_EQ(log1[i].end.sec(), log2[i].end.sec());
  }
  EXPECT_EQ(t1.makespan().sec(), t2.makespan().sec());
}

// Events append by memcpy; labels are static strings, not owned copies.
static_assert(std::is_trivially_copyable_v<Timeline::Event>);

// Reference merge with no ordering assumption: gather every non-empty span
// of the requested resources from the event log, sort by start, coalesce
// overlapping and touching spans.
std::vector<std::pair<SimDuration, SimDuration>> sorted_merge_reference(
    const std::vector<Timeline::Event>& log,
    const std::vector<ResourceId>& resources) {
  std::vector<std::pair<SimDuration, SimDuration>> spans;
  for (const Timeline::Event& ev : log) {
    if (ev.end == ev.start) continue;
    if (std::find(resources.begin(), resources.end(), ev.resource) !=
        resources.end()) {
      spans.emplace_back(ev.start, ev.end);
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<SimDuration, SimDuration>> merged;
  for (const auto& span : spans) {
    if (!merged.empty() && span.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, span.second);
    } else {
      merged.push_back(span);
    }
  }
  return merged;
}

TEST(Timeline, BusyIntervalsMatchSortedMergeOnRandomSchedules) {
  // Times on a coarse microsecond grid, so equal starts across resources,
  // spans touching end to start and zero-length events all occur often.
  Rng rng(0x7e11e5ull);
  for (int trial = 0; trial < 300; ++trial) {
    Timeline tl;
    std::vector<Timeline::Event> log;
    tl.set_event_log(&log);
    const int resources = 1 + rng.next_index(6);
    for (int r = 0; r < resources; ++r) tl.add_resource("R");
    const int events = rng.next_index(80);
    for (int i = 0; i < events; ++i) {
      const int len = rng.next_index(4) == 0 ? 0 : 1 + rng.next_index(5);
      tl.schedule(rng.next_index(resources), "e",
                  SimDuration::microseconds(rng.next_index(60)),
                  SimDuration::microseconds(len));
    }
    // Subsets: empty, single, random (with repeats), and all resources.
    std::vector<std::vector<ResourceId>> subsets = {{}, {rng.next_index(resources)}};
    std::vector<ResourceId> random_subset, all;
    for (int r = 0; r < resources; ++r) {
      all.push_back(r);
      if (rng.next_index(2)) random_subset.push_back(r);
      if (rng.next_index(4) == 0) random_subset.push_back(r);
    }
    subsets.push_back(random_subset);
    subsets.push_back(all);
    for (const std::vector<ResourceId>& subset : subsets) {
      const auto got = tl.busy_intervals(subset);
      const auto want = sorted_merge_reference(log, subset);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first.sec(), want[i].first.sec()) << "trial " << trial;
        EXPECT_EQ(got[i].second.sec(), want[i].second.sec()) << "trial " << trial;
      }
    }
  }
}

TEST(Timeline, EventLogIsObservationOnly) {
  // The same schedule calls on a timeline with a log and on one without
  // give the same placements, merged intervals, busy totals, free times and
  // makespan. Half the trials use a microsecond grid (touching spans and
  // equal starts are common, so coalescing runs often), half arbitrary
  // doubles.
  Rng rng(0x10661e5ull);
  for (int trial = 0; trial < 200; ++trial) {
    const bool grid = trial % 2 == 0;
    auto time_us = [&](int max) {
      return grid ? SimDuration::microseconds(rng.next_index(max))
                  : SimDuration::microseconds(max * rng.next_double());
    };
    Timeline logged, plain;
    std::vector<Timeline::Event> log;
    logged.set_event_log(&log);
    const int resources = 1 + rng.next_index(5);
    std::vector<ResourceId> all;
    for (int r = 0; r < resources; ++r) {
      all.push_back(logged.add_resource("R"));
      plain.add_resource("R");
    }
    const int events = rng.next_index(120);
    for (int i = 0; i < events; ++i) {
      const ResourceId r = rng.next_index(resources);
      const SimDuration ready = time_us(80);
      const SimDuration duration =
          rng.next_index(4) == 0 ? SimDuration::zero() : time_us(6);
      const Timeline::Event a = logged.schedule(r, "e", ready, duration);
      const Timeline::Event b = plain.schedule(r, "e", ready, duration);
      ASSERT_EQ(a.start, b.start) << "trial " << trial;
      ASSERT_EQ(a.end, b.end) << "trial " << trial;
    }
    ASSERT_EQ(log.size(), static_cast<std::size_t>(events));
    EXPECT_EQ(logged.makespan(), plain.makespan()) << "trial " << trial;
    for (const ResourceId r : all) {
      EXPECT_EQ(logged.busy_time(r), plain.busy_time(r)) << "trial " << trial;
      EXPECT_EQ(logged.free_at(r), plain.free_at(r)) << "trial " << trial;
    }
    for (const std::vector<ResourceId>& subset :
         {all, std::vector<ResourceId>{all.back()}}) {
      const auto got = logged.busy_intervals(subset);
      const auto want = plain.busy_intervals(subset);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first) << "trial " << trial;
        EXPECT_EQ(got[i].second, want[i].second) << "trial " << trial;
      }
      // And both equal the sort-based merge of the logged events.
      const auto ref = sorted_merge_reference(log, subset);
      ASSERT_EQ(want.size(), ref.size()) << "trial " << trial;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(want[i].first, ref[i].first) << "trial " << trial;
        EXPECT_EQ(want[i].second, ref[i].second) << "trial " << trial;
      }
    }
  }
}

TEST(TimelineDeathTest, ScheduleRejectsBadResourceAndDurationInEveryBuild) {
  Timeline tl;
  const ResourceId a = tl.add_resource("A");
  EXPECT_DEATH(tl.schedule(a + 1, "x", SimDuration::zero(),
                           SimDuration::microseconds(1)),
               "Timeline::schedule");
  EXPECT_DEATH(tl.schedule(-1, "x", SimDuration::zero(),
                           SimDuration::microseconds(1)),
               "Timeline::schedule");
  EXPECT_DEATH(tl.schedule(a, "x", SimDuration::zero(),
                           SimDuration::microseconds(-1)),
               "Timeline::schedule");
  EXPECT_DEATH(tl.schedule(a, "x", SimDuration::zero(),
                           SimDuration::seconds(std::nan(""))),
               "Timeline::schedule");
  // Non-finite times would break span coalescing and the per-resource order.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(tl.schedule(a, "x", SimDuration::zero(), SimDuration::seconds(inf)),
               "Timeline::schedule");
  for (const double ready : {std::nan(""), inf, -inf}) {
    EXPECT_DEATH(tl.schedule(a, "x", SimDuration::seconds(ready),
                             SimDuration::microseconds(1)),
                 "Timeline::schedule");
  }
  // A zero-length event is valid.
  EXPECT_EQ(tl.schedule(a, "x", SimDuration::zero(), SimDuration::zero()).end,
            SimDuration::zero());
}

// --- batched accelerator ----------------------------------------------------

TEST(PipelinedAccelerator, BatchingAmortizesDriverCalls) {
  Timeline tl;
  const ResourceId ps = tl.add_resource("PS");
  const ResourceId dma = tl.add_resource("DMA");
  const ResourceId pl = tl.add_resource("PL");
  driver::PipelinedWaveletAccelerator accel({}, {}, {.max_lines_per_call = 16},
                                            &tl, ps, dma, pl);
  for (int i = 0; i < 64; ++i) accel.submit_line(102, 88, 102);
  accel.flush();
  EXPECT_EQ(accel.lines(), 64);
  EXPECT_EQ(accel.driver_calls(), 4);  // 16 lines per 2048-word buffer fill

  // The serial ledger pays the driver entry per line.
  driver::WaveletAccelerator serial({}, {});
  SimDuration serial_total;
  for (int i = 0; i < 64; ++i) serial_total += serial.line_time(102, 88, 102);
  EXPECT_LT(tl.makespan().sec(), serial_total.sec());
  EXPECT_LT(tl.makespan().sec(), 0.5 * serial_total.sec());
}

TEST(PipelinedAccelerator, BufferCapacityCapsTheBatch) {
  Timeline tl;
  const ResourceId ps = tl.add_resource("PS");
  const ResourceId dma = tl.add_resource("DMA");
  const ResourceId pl = tl.add_resource("PL");
  driver::PipelinedWaveletAccelerator accel({}, {}, {.max_lines_per_call = 1024},
                                            &tl, ps, dma, pl);
  // 1200-word lines: only one fits the 2048-word kernel buffer.
  for (int i = 0; i < 6; ++i) accel.submit_line(1200, 1188, 1200);
  accel.flush();
  EXPECT_EQ(accel.driver_calls(), 6);
}

TEST(PipelinedAccelerator, BarrierOrdersDependentTransfers) {
  auto run = [](bool with_barrier) {
    Timeline tl;
    const ResourceId ps = tl.add_resource("PS");
    const ResourceId dma = tl.add_resource("DMA");
    const ResourceId pl = tl.add_resource("PL");
    driver::PipelinedWaveletAccelerator accel({}, {}, {.max_lines_per_call = 4},
                                              &tl, ps, dma, pl);
    for (int i = 0; i < 4; ++i) accel.submit_line(200, 176, 200);
    if (with_barrier) accel.barrier();
    for (int i = 0; i < 4; ++i) accel.submit_line(200, 176, 200);
    return accel.flush();
  };
  // Dependent lines may not overlap the producing batch, so the fenced
  // schedule finishes no earlier — and strictly later here, because the
  // second batch's driver call must wait for the first batch's outputs.
  EXPECT_GT(run(true).sec(), run(false).sec());
}

TEST(PipelinedAccelerator, DoubleBufferingOverlapsFillWithProcessing) {
  auto makespan = [](bool double_buffering) {
    Timeline tl;
    const ResourceId ps = tl.add_resource("PS");
    const ResourceId dma = tl.add_resource("DMA");
    const ResourceId pl = tl.add_resource("PL");
    driver::DriverCosts costs;
    costs.double_buffering = double_buffering;
    driver::PipelinedWaveletAccelerator accel({}, costs, {.max_lines_per_call = 4},
                                              &tl, ps, dma, pl);
    // Long compute per line so buffer recycling is the binding constraint.
    for (int i = 0; i < 32; ++i) accel.submit_line(400, 388, 4000);
    accel.flush();
    return tl.makespan();
  };
  EXPECT_LT(makespan(true).sec(), makespan(false).sec());
}

// --- batched FPGA backend ---------------------------------------------------

TEST(BatchedFpga, FusedOutputBitIdenticalToArm) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  sched::ArmBackend arm;
  sched::BatchedFpgaBackend batched;
  sched::TimedFusionRunner run_arm(arm), run_batched(batched);
  const auto ra = run_arm.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  const auto rb = run_batched.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  ASSERT_EQ(ra.fused.size(), rb.fused.size());
  for (std::size_t i = 0; i < ra.fused.size(); ++i) {
    EXPECT_EQ(ra.fused.data()[i], rb.fused.data()[i]) << i;
  }
}

TEST(BatchedFpga, MovesTheTimeBreakPointLeftOf35x35) {
  // The serial ledger's break point sits between 35x35 and 40x40 (NEON wins
  // at 35x35 — tests/test_sched.cpp). Transfer-granularity double buffering
  // amortizes the ~12k-cycle driver entry and moves it left of 35x35.
  sched::NeonBackend neon;
  sched::BatchedFpgaBackend batched;
  const auto rn = sched::probe_backend(neon, {35, 35}, 4);
  const auto rb = sched::probe_backend(batched, {35, 35}, 4);
  EXPECT_LT(rb.total.sec(), rn.total.sec());

  // And it stays ahead at the sizes the serial FPGA already won.
  sched::NeonBackend neon_l;
  sched::BatchedFpgaBackend batched_l;
  const auto rnl = sched::probe_backend(neon_l, {88, 72}, 4);
  const auto rbl = sched::probe_backend(batched_l, {88, 72}, 4);
  EXPECT_LT(rbl.total.sec(), rnl.total.sec());
}

TEST(BatchedFpga, FasterThanSerialFpgaEverywhere) {
  for (const sched::FrameSize& size : sched::paper_frame_sizes()) {
    sched::FpgaBackend serial;
    sched::BatchedFpgaBackend batched;
    const auto rs = sched::probe_backend(serial, size, 2);
    const auto rb = sched::probe_backend(batched, size, 2);
    EXPECT_LT(rb.total.sec(), rs.total.sec()) << size.label();
  }
}

TEST(BatchedFpga, DeterministicAcrossRuns) {
  sched::BatchedFpgaBackend b1, b2;
  const auto r1 = sched::probe_backend(b1, {40, 40}, 2);
  const auto r2 = sched::probe_backend(b2, {40, 40}, 2);
  EXPECT_EQ(r1.total.sec(), r2.total.sec());
  EXPECT_EQ(r1.energy_mj, r2.energy_mj);
}

// --- serial-path regression (Fig. 9 anchors must not move) ------------------

TEST(SerialPath, Fig9NumbersUnchangedByTheTimelineRefactor) {
  // With pipelining disabled (i.e. the plain backends every Fig. 9/10 bench
  // uses), the modeled totals must reproduce the seed ledger exactly; these
  // constants were recorded from the pre-refactor model.
  sched::ArmBackend arm;
  sched::NeonBackend neon;
  sched::FpgaBackend fpga;
  const auto ra = sched::probe_backend(arm, {88, 72}, 10);
  const auto rn = sched::probe_backend(neon, {88, 72}, 10);
  const auto rf = sched::probe_backend(fpga, {88, 72}, 10);
  EXPECT_NEAR(ra.total.sec(), 1.974639061914, 1.974639061914 * 1e-7);
  EXPECT_NEAR(rn.total.sec(), 1.756228939587, 1.756228939587 * 1e-7);
  EXPECT_NEAR(rf.total.sec(), 0.972304478799, 0.972304478799 * 1e-7);
  EXPECT_NEAR(ra.energy_mj, 1053.075011718568, 1053.075011718568 * 1e-7);
  EXPECT_NEAR(rf.energy_mj, 537.198224536573, 537.198224536573 * 1e-7);
}

TEST(SerialPath, PlSplitNeverExceedsTheLedger) {
  sched::FpgaBackend fpga;
  sched::TimedFusionRunner runner(fpga);
  const auto pairs = sched::make_sweep_frames({64, 48}, 1);
  const auto r = runner.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  EXPECT_GT(r.pl_times.forward.sec(), 0.0);
  EXPECT_LE(r.pl_times.forward.sec(), r.times.forward.sec());
  EXPECT_LE(r.pl_times.inverse.sec(), r.times.inverse.sec());
  EXPECT_DOUBLE_EQ(r.pl_times.prep.sec(), 0.0);

  sched::ArmBackend arm;
  sched::TimedFusionRunner arm_runner(arm);
  const auto ra = arm_runner.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  EXPECT_DOUBLE_EQ(ra.pl_times.total().sec(), 0.0);  // no PL work on the CPU
}

// --- frame-level pipeline ---------------------------------------------------

TEST(PipelinedRunner, OverlapDisabledMatchesTheAdditiveLedger) {
  // DESIGN.md §2 invariant: the event-queue path with overlap disabled
  // reproduces the additive ledger (up to float summation order).
  for (const sched::FrameSize& size : {sched::FrameSize{35, 35},
                                       sched::FrameSize{88, 72}}) {
    sched::FpgaBackend fpga;
    sched::PipelineOptions options;
    options.overlap = false;
    const auto r = sched::probe_pipelined(fpga, size, 3, options);
    EXPECT_NEAR(r.makespan.sec(), r.serial_total.sec(),
                r.serial_total.sec() * 1e-9)
        << size.label();
  }
}

TEST(PipelinedRunner, CpuBackendsGainNothingFpgaGains) {
  // Every stage of a CPU backend needs the PS core, so the pipeline cannot
  // overlap anything; the FPGA backends offload the transforms to the PL
  // and overlap them with the fusion rule and prep of neighboring frames.
  sched::NeonBackend neon;
  const auto rn = sched::probe_pipelined(neon, {64, 48}, 4);
  EXPECT_NEAR(rn.makespan.sec(), rn.serial_total.sec(),
              rn.serial_total.sec() * 1e-9);

  sched::BatchedFpgaBackend batched;
  const auto rb = sched::probe_pipelined(batched, {64, 48}, 4);
  EXPECT_LT(rb.makespan.sec(), rb.serial_total.sec());
}

TEST(PipelinedRunner, SustainedFpsBeatsTheSerialRunnerByAtLeast1p3x) {
  // Acceptance: at 88x72 the pipelined schedule sustains >= 1.3x the fps of
  // the serial runner (the seed FpgaBackend through probe_backend).
  const int frames = 6;
  sched::FpgaBackend serial;
  const auto rs = sched::probe_backend(serial, {88, 72}, frames);
  const double serial_fps = frames / rs.total.sec();

  sched::BatchedFpgaBackend batched;
  const auto rp = sched::probe_pipelined(batched, {88, 72}, frames);
  EXPECT_GE(rp.sustained_fps, 1.3 * serial_fps);

  // The frame overlap also beats the batched backend's own serial schedule.
  sched::BatchedFpgaBackend batched_serial;
  sched::PipelineOptions no_overlap;
  no_overlap.overlap = false;
  const auto rb = sched::probe_pipelined(batched_serial, {88, 72}, frames,
                                         no_overlap);
  EXPECT_LT(rp.makespan.sec(), rb.makespan.sec());
}

TEST(PipelinedRunner, EnergyPerFrameDropsWithThePipeline) {
  const int frames = 4;
  sched::BatchedFpgaBackend serial_b, piped_b;
  sched::PipelineOptions no_overlap;
  no_overlap.overlap = false;
  const auto rs = sched::probe_pipelined(serial_b, {88, 72}, frames, no_overlap);
  const auto rp = sched::probe_pipelined(piped_b, {88, 72}, frames);
  EXPECT_LT(rp.energy_per_frame_mj(), rs.energy_per_frame_mj());
  // Gating the engine draw to PL-busy intervals can only save more.
  EXPECT_LE(rp.energy_gated_mj, rp.energy_mj);
}

// With overlap on, a window of no frames is refused in every build rather
// than clamped to 1; with overlap off the depth is unused.
TEST(PipelinedRunnerDeathTest, RejectsDepthBelowOneWithOverlapOn) {
  sched::PipelineOptions options;
  options.depth = 0;
  auto run = [&] {
    sched::ArmBackend arm;
    sched::probe_pipelined(arm, {16, 12}, 1, options);
  };
  EXPECT_DEATH(run(), "run_pipelined: pipeline depth 0 with overlap on");
  options.depth = -4;
  EXPECT_DEATH(run(), "run_pipelined: pipeline depth -4");
  options.overlap = false;
  run();
}

}  // namespace
