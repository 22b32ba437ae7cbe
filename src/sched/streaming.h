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

  // Field for field: equal ops replay identically.
  bool operator==(const StreamOp& o) const {
    return kind == o.kind && stage == o.stage && ps == o.ps &&
           words_in == o.words_in && words_out == o.words_out &&
           compute_cycles == o.compute_cycles && after_barrier == o.after_barrier;
  }
};

// The op lists of one stream's frames, each distinct list stored once:
// frame f replays lists[frame_list[f]]. Modeled costs depend on the frame
// shape only, so a captured stream of equal-size frames stores two lists
// (frame 0 and the steady state) instead of one per frame.
struct FrameOpLists {
  std::vector<std::vector<StreamOp>> lists;
  std::vector<int> frame_list;  // per frame: index into `lists`

  // Adds the next frame. `ops` is stored only when it differs field for
  // field from the last stored list; otherwise the frame reuses that list.
  void append(const std::vector<StreamOp>& ops);

  // Adds the next frame as a replay of stored list `list`, with no copy and
  // no compare: for a caller that knows the frame's ops equal that list
  // (a frame memo hit; in a stream of one frame size, the last list).
  void repeat(int list) { frame_list.push_back(list); }

  int frames() const { return static_cast<int>(frame_list.size()); }
  const std::vector<StreamOp>& operator[](int f) const {
    return lists[static_cast<std::size_t>(frame_list[static_cast<std::size_t>(f)])];
  }
};

// Appends `d` of PS work as one or more kPs slices of at most
// kStreamPsSliceCycles each (equal slices, deterministic count).
void append_sliced_ps(std::vector<StreamOp>* ops, int stage, SimDuration d);

// Op list of one frame from its stage-granular cost split (streams that do
// not run the batched accelerator: CPU backends, serial FPGA, NEON spill).
std::vector<StreamOp> stage_cost_ops(const std::array<FleetStageCost, 4>& cost);

// One stream's input to the streaming replay. op_lists[f] is frame f's
// captured op list (one per arrival); spill_ops (when non-empty) is the
// all-PS NEON alternative the admission layer may switch any frame to. NEON
// costs are shape-only, so one list serves every frame of the stream.
struct StreamingStreamInput {
  std::vector<SimDuration> arrivals;
  FrameOpLists op_lists;
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
// buffer state — no drain). Counts below 1, a non-positive sg_chain_len
// and an op-list count other than the arrival count abort in every build.
// A non-null `event_log` is attached to the schedule's timeline
// (Timeline::set_event_log) and receives every placed event.
FleetSchedule schedule_streaming(const std::vector<StreamingStreamInput>& streams,
                                 int cores, int engines, int pipeline_depth,
                                 bool steal_engines, double spill_wait_frac,
                                 std::vector<Timeline::Event>* event_log = nullptr);

}  // namespace vf::sched::detail
