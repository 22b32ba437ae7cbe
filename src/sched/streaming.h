// Cross-frame line streaming replay (ISSUE 9 tentpole).
//
// The legacy overlapped schedule (run_pipelined pass 2 / schedule_fleet)
// works at *stage* granularity: each frame's forward/inverse transform is
// one opaque PL block, so the engine drains at every frame and stage
// boundary and the PS pays one full driver entry per batch. This module
// replays the pass-1 measurement at *batch* granularity instead:
//
//   - the op stream of every frame (PS slices, line batches, barriers,
//     stage boundaries) is captured during the serial measurement pass
//     (BatchedFpgaBackend::enable_stream_trace) and re-scheduled on a
//     shared Timeline with per-engine ping-pong buffer state that
//     persists across frame, level, and stream boundaries — buffer B
//     refills from the next frame's rows while buffer A's last batch is
//     still on the engine;
//   - one ioctl arms a scatter-gather descriptor chain of up to
//     sg_chain_len batches; continuation batches pay only the descriptor
//     build/fetch charges (DriverCosts::sg_*), so the ~12k-cycle driver
//     entry amortizes across the chain. A chain closes when the engine
//     switches streams (new ioctl context) or the chain fills;
//   - long PS charges are sliced at kStreamPsSliceCycles so the modeled
//     interrupt-driven driver can interleave descriptor appends (keeping
//     the PL fed) with application work like the next frame's prep.
//
// Dispatch is the same deterministic non-delay policy as schedule_fleet,
// one op at a time: among all eligible next-ops (admitted, in the
// pipeline-depth window), the earliest feasible start commits first; ties
// break by stream, then frame. Numerics are untouched — pass 1 runs the
// exact serial schedule, so fused outputs and serial totals stay
// bit-identical with streaming on or off (tests/test_streaming.cpp).
#pragma once

#include <array>
#include <vector>

#include "src/hw/driver.h"
#include "src/sched/fleet.h"

namespace vf::sched::detail {

// One schedulable unit of a frame's replayed execution.
struct StreamOp {
  enum class Kind {
    kPs,             // PS-core work slice (prep, fusion rule, spill)
    kBatch,          // one accelerator batch: drv/desc + in + comp + out
    kPlBlock,        // opaque PL block (stage-granular streams, e.g. kFpga)
    kStageBoundary,  // phase-exit sync: later PS work waits for the drain
  };
  Kind kind = Kind::kPs;
  int stage = 0;  // 0..3 (prep/fwd/fus/inv), for event labels
  SimDuration ps;              // kPs / kPlBlock duration
  int words_in = 0;            // kBatch
  int words_out = 0;           // kBatch
  double compute_cycles = 0.0; // kBatch, PL cycles
  bool after_barrier = false;  // kBatch: input depends on earlier outputs
};

// Appends `d` of PS work as one or more kPs slices of at most
// kStreamPsSliceCycles each (equal slices, deterministic count).
void append_sliced_ps(std::vector<StreamOp>* ops, int stage, SimDuration d);

// Op list of one frame from its stage-granular cost split (streams that do
// not run the batched accelerator: CPU backends, serial FPGA, NEON spill).
std::vector<StreamOp> stage_cost_ops(const std::array<FleetStageCost, 4>& cost);

// One stream's input to the streaming replay. frame_ops[f] is frame f's
// captured op list; spill_ops (when non-empty) is the all-PS NEON
// alternative the admission layer may switch any frame to. NEON costs are
// shape-only, so one list serves every frame of the stream.
struct StreamingStreamInput {
  std::vector<SimDuration> arrivals;
  std::vector<std::vector<StreamOp>> frame_ops;
  std::vector<StreamOp> spill_ops;
  SimDuration period;   // frame period; zero = batch mode (no spill)
  int queue_depth = 0;  // <= 0 = unbounded
  int home_engine = 0;
  // Modeled hardware driving this stream's kBatch ops.
  hw::WaveletEngineConfig engine;
  driver::DriverCosts costs;
  int sg_chain_len = 1;  // >= 1; schedule_streaming aborts otherwise
};

// Replays the op streams on `cores` PS cores and `engines` PL engine slots
// (each with its own ACP DMA channel, listed in FleetSchedule::dmas).
// Admission, drops, the pipeline-depth window, engine stealing, and the
// NEON spill follow schedule_fleet's policies; ping-pong buffers and
// descriptor chains are per engine slot and persist across frames and
// streams (a slot switching streams re-arms its chain but keeps its
// buffer state — no drain).
FleetSchedule schedule_streaming(const std::vector<StreamingStreamInput>& streams,
                                 int cores, int engines, int pipeline_depth,
                                 bool steal_engines, double spill_wait_frac);

}  // namespace vf::sched::detail
