// Cross-frame streaming + scatter-gather driver tests (ISSUE 9).
//
// Contracts: legacy outputs are bit-identical with cross_frame off (and with
// the default sg_chain_len = 1 everywhere), the streaming replay is a pure
// re-schedule of the serial measurement (numerics and serial totals
// unchanged, deterministic at any host pool width), the fleet's 1-stream
// streaming case reproduces run_pipelined's streaming schedule exactly, and
// the performance claims the bench tables report (fps at 88x72, the
// break-point move at small frames) hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "src/hw/driver.h"
#include "src/sched/fleet.h"
#include "src/sched/pipeline.h"
#include "src/sched/streaming.h"

namespace vf {
namespace {

sched::RunConfig streaming_config(const sched::FrameSize& size, int frames,
                                  int sg_chain_len) {
  sched::RunConfig run;
  run.frame_size = size;
  run.frames = frames;
  run.cross_frame = true;
  run.batching.sg_chain_len = sg_chain_len;
  return run;
}

sched::PipelineRunResult run_piped(const sched::RunConfig& run) {
  sched::BatchedFpgaBackend backend(run);
  return sched::probe_pipelined(backend, run);
}

// --- defaults keep every legacy schedule ------------------------------------

TEST(Streaming, DefaultsAreLegacy) {
  EXPECT_FALSE(sched::RunConfig{}.cross_frame);
  EXPECT_EQ(driver::PipelinedWaveletAccelerator::Batching{}.sg_chain_len, 1);
  EXPECT_FALSE(sched::FleetConfig{}.cross_frame);
  EXPECT_FALSE(sched::PipelineOptions{}.cross_frame);
}

// --- scatter-gather chain on the serial accelerator --------------------------

TEST(Streaming, SgChainAmortizesDriverEntriesOnSerialSchedule) {
  auto run_serial = [](int sg) {
    Timeline tl;
    const ResourceId ps = tl.add_resource("ps");
    const ResourceId dma = tl.add_resource("dma");
    const ResourceId pl = tl.add_resource("pl");
    driver::PipelinedWaveletAccelerator::Batching batching;
    batching.max_lines_per_call = 4;
    batching.sg_chain_len = sg;
    driver::PipelinedWaveletAccelerator accel(
        hw::WaveletEngineConfig{}, driver::DriverCosts{}, batching, &tl, ps,
        dma, pl);
    // Driver-entry-bound batches (comp ~4 us << ~23.5 us entry): the regime
    // the chain exists for. Compute-bound batches hide the entry behind the
    // double buffer already, and there SG's descriptor fetch is pure cost.
    for (int i = 0; i < 64; ++i) accel.submit_line(190, 176, 100.0);
    accel.flush();
    return std::make_tuple(tl.makespan(), accel.driver_calls(),
                           accel.chain_heads());
  };
  const auto [flat_makespan, flat_calls, flat_heads] = run_serial(1);
  const auto [sg_makespan, sg_calls, sg_heads] = run_serial(8);
  // Same batches either way; with sg=1 every batch is a chain head.
  EXPECT_EQ(flat_calls, sg_calls);
  EXPECT_EQ(flat_heads, flat_calls);
  // With sg=8 only every 8th batch pays the driver entry...
  EXPECT_EQ(sg_heads, (sg_calls + 7) / 8);
  // ...and the descriptor appends are cheaper than the entries they replace.
  EXPECT_LT(sg_makespan, flat_makespan);
}

TEST(Streaming, FlushClosesTheArmedChain) {
  Timeline tl;
  const ResourceId ps = tl.add_resource("ps");
  const ResourceId dma = tl.add_resource("dma");
  const ResourceId pl = tl.add_resource("pl");
  driver::PipelinedWaveletAccelerator::Batching batching;
  batching.max_lines_per_call = 1;
  batching.sg_chain_len = 64;  // longer than either burst below
  driver::PipelinedWaveletAccelerator accel(
      hw::WaveletEngineConfig{}, driver::DriverCosts{}, batching, &tl, ps, dma,
      pl);
  for (int i = 0; i < 3; ++i) accel.submit_line(190, 176, 1000.0);
  accel.flush();
  for (int i = 0; i < 3; ++i) accel.submit_line(190, 176, 1000.0);
  accel.flush();
  // One chain head per flush-separated burst: the synchronous drain ends the
  // ioctl context, so the next batch re-enters the driver.
  EXPECT_EQ(accel.driver_calls(), 6);
  EXPECT_EQ(accel.chain_heads(), 2);
}

// --- streaming is a pure re-schedule -----------------------------------------

TEST(Streaming, CrossFrameKeepsSerialTotalAndChangesOnlyTheSchedule) {
  sched::RunConfig off = streaming_config({64, 48}, 6, 1);
  off.cross_frame = false;
  sched::RunConfig on = streaming_config({64, 48}, 6, 1);
  const sched::PipelineRunResult legacy = run_piped(off);
  const sched::PipelineRunResult streaming = run_piped(on);
  // Pass 1 runs the identical serial schedule, so the additive ledger total
  // matches as exact doubles; only the pass-2 replay differs.
  EXPECT_EQ(legacy.serial_total, streaming.serial_total);
  EXPECT_NE(legacy.makespan.sec(), streaming.makespan.sec());
}

TEST(Streaming, FusedOutputsIdenticalWithCrossFrameOnOrOff) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 2);
  auto fused_at = [&](bool cross_frame) {
    sched::RunConfig run = streaming_config({40, 40}, 2, 8);
    run.cross_frame = cross_frame;
    sched::BatchedFpgaBackend backend(run);
    if (cross_frame) backend.enable_stream_trace();
    sched::TimedFusionRunner runner(backend, run.fuse);
    return runner.run_frame_pair(pairs[0].visible, pairs[0].thermal).fused;
  };
  const image::ImageF off = fused_at(false);
  const image::ImageF on = fused_at(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off.data()[i], on.data()[i]) << "pixel " << i;
  }
}

TEST(Streaming, ModeledOutputsIdenticalAtAnyHostThreadCount) {
  sched::PipelineRunResult results[3];
  const int threads[] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    sched::RunConfig run = streaming_config({64, 48}, 5, 8);
    run.host.threads = threads[i];
    results[i] = run_piped(run);
  }
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(results[0].makespan, results[i].makespan);
    EXPECT_EQ(results[0].serial_total, results[i].serial_total);
    EXPECT_EQ(results[0].energy_mj, results[i].energy_mj);
    EXPECT_EQ(results[0].energy_gated_mj, results[i].energy_gated_mj);
  }
}

TEST(Streaming, PipelineDepthOneDisablesTheReplay) {
  sched::RunConfig run = streaming_config({40, 40}, 4, 8);
  run.pipeline_depth = 1;
  sched::RunConfig off = run;
  off.cross_frame = false;
  const sched::PipelineRunResult on_r = run_piped(run);
  const sched::PipelineRunResult off_r = run_piped(off);
  // depth <= 1 means the serial event schedule on both paths.
  EXPECT_EQ(on_r.makespan, off_r.makespan);
  EXPECT_EQ(on_r.energy_mj, off_r.energy_mj);
}

TEST(Streaming, NonBatchedBackendsFallBackToLegacySilently) {
  sched::RunConfig run = streaming_config({40, 40}, 4, 8);
  sched::RunConfig off = run;
  off.cross_frame = false;
  auto piped_neon = [](const sched::RunConfig& rc) {
    const auto backend = sched::make_backend(sched::BackendKind::kNeon, rc);
    return sched::probe_pipelined(*backend, rc);
  };
  const sched::PipelineRunResult on_r = piped_neon(run);
  const sched::PipelineRunResult off_r = piped_neon(off);
  EXPECT_EQ(on_r.makespan, off_r.makespan);
  EXPECT_EQ(on_r.energy_mj, off_r.energy_mj);
}

// --- performance claims the bench tables report -------------------------------

TEST(Streaming, ChainedStreamingBeatsLegacyAndThePaperRateAt88x72) {
  const sched::PipelineRunResult streaming =
      run_piped(streaming_config({88, 72}, 10, 8));
  sched::RunConfig legacy_cfg = streaming_config({88, 72}, 10, 1);
  legacy_cfg.cross_frame = false;
  const sched::PipelineRunResult legacy = run_piped(legacy_cfg);
  // ISSUE 9 acceptance: sustained fps above the pre-streaming 63.4 ceiling.
  EXPECT_GT(streaming.sustained_fps, 63.4);
  EXPECT_GT(streaming.sustained_fps, legacy.sustained_fps);
  EXPECT_LT(streaming.energy_mj, legacy.energy_mj);
}

TEST(Streaming, StreamingWinsAgainstNeonBelowThePaperSweep) {
  // The legacy break point already sits at the paper's smallest size; the
  // streaming schedule must keep the FPGA ahead even at 16x12, where the
  // driver entry dominates hardest (the "move left" claim in EXPERIMENTS.md).
  const sched::FrameSize tiny{16, 12};
  const sched::PipelineRunResult streaming =
      run_piped(streaming_config(tiny, 10, 8));
  sched::RunConfig neon_cfg = streaming_config(tiny, 10, 1);
  neon_cfg.cross_frame = false;
  const auto neon = sched::make_backend(sched::BackendKind::kNeon, neon_cfg);
  const sched::PipelineRunResult neon_r = sched::probe_pipelined(*neon, neon_cfg);
  EXPECT_LT(streaming.makespan, neon_r.makespan);
}

// --- fleet integration --------------------------------------------------------

TEST(Streaming, OneStreamFleetReproducesRunPipelinedBitForBit) {
  const sched::RunConfig run = streaming_config({88, 72}, 6, 8);
  const sched::PipelineRunResult piped = run_piped(run);

  sched::StreamConfig stream;
  stream.backend = sched::BackendKind::kFpgaBatched;
  stream.run = run;
  stream.queue_depth = 0;  // unbounded, like run_pipelined
  sched::FleetConfig fleet;
  fleet.engines = 1;
  fleet.cores = 1;
  fleet.pipeline_depth = run.pipeline_depth;
  fleet.steal_engines = true;
  fleet.spill_wait_frac = 0.0;
  fleet.cross_frame = true;
  const sched::FleetResult fleet_r = sched::run_fleet({stream}, fleet);

  EXPECT_EQ(fleet_r.makespan, piped.makespan);
  EXPECT_EQ(fleet_r.energy_mj, piped.energy_mj);
  EXPECT_EQ(fleet_r.energy_gated_mj, piped.energy_gated_mj);
  EXPECT_EQ(fleet_r.completed, 6);
}

TEST(Streaming, FleetMixesBatchTracesWithStageGranularStreams) {
  // A batched-FPGA stream and a NEON stream share the replay: the first
  // contributes its captured batch ops, the second sliced stage costs. All
  // frames must complete (fps 0 = everything ready at t=0, no drops).
  sched::StreamConfig fpga;
  fpga.backend = sched::BackendKind::kFpgaBatched;
  fpga.run = streaming_config({40, 40}, 4, 8);
  fpga.queue_depth = 0;
  sched::StreamConfig neon = fpga;
  neon.backend = sched::BackendKind::kNeon;
  sched::FleetConfig fleet;
  fleet.engines = 1;
  fleet.cores = 2;
  fleet.cross_frame = true;
  const sched::FleetResult r = sched::run_fleet({fpga, neon}, fleet);
  EXPECT_EQ(r.completed, 8);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_GT(r.makespan, SimDuration::zero());

  // Determinism: the replay is a pure function of the modeled inputs.
  const sched::FleetResult again = sched::run_fleet({fpga, neon}, fleet);
  EXPECT_EQ(r.makespan, again.makespan);
  EXPECT_EQ(r.energy_mj, again.energy_mj);
}

TEST(Streaming, FleetCrossFrameOffKeepsLegacySchedule) {
  sched::StreamConfig stream;
  stream.backend = sched::BackendKind::kFpgaBatched;
  stream.run.frame_size = {64, 48};
  stream.run.frames = 4;
  stream.queue_depth = 0;
  sched::FleetConfig legacy;
  legacy.engines = 1;
  legacy.cores = 1;
  legacy.spill_wait_frac = 0.0;
  sched::FleetConfig off = legacy;
  off.cross_frame = false;  // explicit and default spellings must agree
  const sched::FleetResult a = sched::run_fleet({stream}, legacy);
  const sched::FleetResult b = sched::run_fleet({stream}, off);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
}

// --- golden schedule ------------------------------------------------------------

// Frame f of stream s: prep, forward batches, fusion, inverse batches. Every
// fourth frame is PL-heavy and the one after it is PS-only, so the short
// frame overtakes the heavy one while its batches occupy the engine; barriers
// and PS slices of several quanta exercise every fence.
std::vector<sched::detail::StreamOp> golden_frame_ops(int s, int f) {
  using sched::detail::StreamOp;
  std::vector<StreamOp> ops;
  auto boundary = [&](int stage) {
    StreamOp op;
    op.kind = StreamOp::Kind::kStageBoundary;
    op.stage = stage;
    ops.push_back(op);
  };
  const bool heavy = f % 4 == 1;
  const bool ps_only = f % 4 == 2;
  auto batches = [&](int stage, int n) {
    for (int b = 0; b < n; ++b) {
      StreamOp op;
      op.kind = StreamOp::Kind::kBatch;
      op.stage = stage;
      op.words_in = 190 + 8 * b;
      op.words_out = 176;
      op.compute_cycles = heavy ? 20000.0 : 800.0 + 150.0 * ((b + f) % 3);
      op.after_barrier = b == n / 2;
      ops.push_back(op);
    }
  };
  sched::detail::append_sliced_ps(
      &ops, 0, SimDuration::microseconds(20 + 13 * ((f + s) % 4)));
  boundary(0);
  batches(1, ps_only ? 0 : 2 + (f * 5 + s * 3) % 5);
  boundary(1);
  sched::detail::append_sliced_ps(&ops, 2,
                                  SimDuration::microseconds(15 + 40 * (f % 3)));
  boundary(2);
  batches(3, ps_only ? 0 : 1 + (f * 3 + s) % 4);
  return ops;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t hash_events(const Timeline& tl) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Timeline::Event& ev : tl.events()) {
    const double start = ev.start.sec();
    const double end = ev.end.sec();
    const std::string_view label(ev.label);
    h = fnv1a(h, &ev.resource, sizeof ev.resource);
    h = fnv1a(h, &start, sizeof start);
    h = fnv1a(h, &end, sizeof end);
    h = fnv1a(h, label.data(), label.size());
    h = fnv1a(h, "", 1);  // label terminator
  }
  return h;
}

// Pins the exact event list of a contended 3-stream replay (pipeline depth
// 3, bounded queues, NEON spill, one stage-granular stream) that drops and
// spills frames and completes frames out of order. The hash was computed
// with a dispatch scan over every started frame; any change to placement,
// tie order or labels moves it.
TEST(Streaming, GoldenScheduleOfAContendedThreeStreamReplay) {
  using sched::detail::StreamingStreamInput;
  constexpr int kFrames = 12;
  std::vector<StreamingStreamInput> streams(3);
  const double periods_us[3] = {300.0, 120.0, 0.0};
  const int queue_depths[3] = {2, 1, 0};
  for (int s = 0; s < 3; ++s) {
    StreamingStreamInput& in = streams[static_cast<std::size_t>(s)];
    in.period = SimDuration::microseconds(periods_us[s]);
    in.queue_depth = queue_depths[s];
    in.home_engine = s;
    in.sg_chain_len = 4;
    for (int f = 0; f < kFrames; ++f) {
      in.arrivals.push_back(in.period * (f + 0.25 * ((f * 7 + s) % 3)));
      if (s == 2) {
        in.frame_ops.push_back(sched::detail::stage_cost_ops(
            {{{SimDuration::microseconds(30), SimDuration::zero()},
              {SimDuration::microseconds(10), SimDuration::microseconds(60 + 25 * (f % 4))},
              {SimDuration::microseconds(45), SimDuration::zero()},
              {SimDuration::microseconds(10), SimDuration::microseconds(50)}}}));
      } else {
        in.frame_ops.push_back(golden_frame_ops(s, f));
      }
    }
    if (s < 2) {
      in.spill_ops = sched::detail::stage_cost_ops(
          {{{SimDuration::microseconds(20), SimDuration::zero()},
            {SimDuration::microseconds(90), SimDuration::zero()},
            {SimDuration::microseconds(25), SimDuration::zero()},
            {SimDuration::microseconds(70), SimDuration::zero()}}});
    }
  }
  const sched::detail::FleetSchedule sched = sched::detail::schedule_streaming(
      streams, /*cores=*/2, /*engines=*/2, /*pipeline_depth=*/3,
      /*steal_engines=*/true, /*spill_wait_frac=*/0.5);

  // The run exercises what the hash is meant to pin.
  int dropped = 0, spilled = 0, out_of_order = 0;
  for (const auto& frames : sched.frames) {
    SimDuration last;
    for (const sched::detail::FleetFrameOutcome& o : frames) {
      dropped += o.dropped;
      spilled += o.spilled;
      if (o.dropped) continue;
      if (o.completion < last) ++out_of_order;
      if (o.completion > last) last = o.completion;
    }
  }
  EXPECT_EQ(dropped, 4);
  EXPECT_EQ(spilled, 9);
  EXPECT_EQ(out_of_order, 9);

  EXPECT_EQ(sched.timeline.events().size(), 377u);
  EXPECT_EQ(hash_events(sched.timeline), 0x860b1ad685517decull);
}

// --- op-list construction -----------------------------------------------------

TEST(Streaming, PsSlicingIsDeterministicAndPreservesTotals) {
  std::vector<sched::detail::StreamOp> ops;
  const SimDuration quantum =
      hw::ps_clock().cycles(hw::cost::kStreamPsSliceCycles);
  sched::detail::append_sliced_ps(&ops, 2, quantum * 3.5);
  ASSERT_EQ(ops.size(), 4u);  // ceil(3.5) equal slices
  SimDuration total;
  for (const auto& op : ops) {
    EXPECT_EQ(op.kind, sched::detail::StreamOp::Kind::kPs);
    EXPECT_EQ(op.stage, 2);
    EXPECT_LE(op.ps, quantum);
    total += op.ps;
  }
  EXPECT_NEAR(total.sec(), (quantum * 3.5).sec(), 1e-15);

  // Zero and negative durations contribute nothing.
  sched::detail::append_sliced_ps(&ops, 0, SimDuration::zero());
  EXPECT_EQ(ops.size(), 4u);
}

}  // namespace
}  // namespace vf
