// Event-queue execution on top of the Timeline (ROADMAP items 1–2).
//
// Two layers of computed (not assumed) concurrency:
//
//   BatchedFpgaBackend     the FPGA engine driven through the
//                          PipelinedWaveletAccelerator: consecutive lines
//                          are packed into the 2048-word kernel buffers,
//                          one driver call per batch, and the two buffers
//                          ping-pong at transfer granularity (the paper's
//                          Fig. 5 schedule across *consecutive* lines).
//                          Amortizing the ~12k-cycle driver entry moves the
//                          FPGA time break point left of 35x35
//                          (tests/test_timeline.cpp locks this).
//
//   run_pipelined          frame-level software pipelining: while the PL
//                          transforms frame N, the PS runs frame N-1's
//                          fusion rule and frame N+1's prep. Stage costs
//                          come from the per-frame ledger (split into
//                          PS-resident and PL-resident parts) and are
//                          re-scheduled on a Timeline; with overlap
//                          disabled the schedule degenerates to the serial
//                          ledger sum (DESIGN.md §2 invariant).
//
// Numerics are untouched in both layers: the same kernels run in the same
// order, so fused outputs stay bit-identical with every other backend.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/timeline.h"
#include "src/sched/adaptive.h"
#include "src/sched/streaming.h"

namespace vf::sched {

// FPGA backend with batched line submission and transfer-granularity double
// buffering. Modeled time is computed by an internal Timeline over three
// resources (PS core, ACP DMA, PL engine); the additive per-phase ledger is
// reconciled from makespan deltas at phase boundaries, so
// frame_times().total() is the PS-visible end-to-end time, overlap included.
// Each frame is charged on that timeline from a frame-relative origin: the
// previous frame is drained at finish_frame(), so begin_frame() resets the
// timeline and every time-valued field to zero, and a frame's stage costs
// depend only on its shape and the carried driver state (ping-pong parity,
// a pending barrier), never on how many frames came before.
class BatchedFpgaBackend : public TransformBackend {
 public:
  BatchedFpgaBackend() : BatchedFpgaBackend(RunConfig{}) {}
  explicit BatchedFpgaBackend(const RunConfig& config);
  ~BatchedFpgaBackend() override;

  const char* name() const override { return "FPGA+batch"; }
  power::ComputeMode compute_mode() const override {
    return power::ComputeMode::kArmFpga;
  }
  dwt::LineFilter& line_filter() override;

  void charge(SimDuration d) override;
  void finish_frame() override;

  const driver::PipelinedWaveletAccelerator& accelerator() const { return accel_; }

  // Cross-frame streaming trace (ISSUE 9): record every frame's op stream
  // (PS slices, accelerator batches, stage boundaries) during the serial
  // measurement pass. Recording is pure observation — the serial schedule,
  // ledgers, and numerics are unchanged. take_stream_trace() returns the op
  // lists of the completed frames (a list repeated by consecutive frames is
  // stored once) and stops recording.
  void enable_stream_trace();
  detail::FrameOpLists take_stream_trace();

 protected:
  // Frame memo. The carried state a frame's accounting reads is the
  // ping-pong parity of the driver calls; every time-valued field starts at
  // the frame origin. A barrier no batch has followed yet changes only the
  // first traced batch's after_barrier, so it is not part of the key: a hit
  // that starts with it in the other state replays the recorded op list with
  // that flag flipped (barrier_variant). Tracing is part of the key, per
  // trace session, so a hit can index the session's stored op lists.
  std::uint64_t memo_key() const override;
  std::unique_ptr<FrameRecord> begin_record() override;
  void end_record(FrameRecord* record) override;
  void apply_record(const FrameRecord& record) override;

  void on_begin_frame() override;
  void on_phase_exit(Phase old_phase) override;

 private:
  class Filter;
  struct Record;

  // Closes in-flight batches and charges the makespan growth since the last
  // sync to `charge_to` (PL/DMA busy growth goes to the PL split ledger).
  void sync(Phase charge_to);

  // Converts accelerator batches closed since the last drain into kBatch
  // ops, then (optionally) appends a stage boundary; no-ops unless tracing.
  void drain_trace(Phase stage);
  void push_stage_boundary(Phase stage);

  // The index of stored op list `list` with its first batch's after_barrier
  // flipped, stored on first use in this trace session.
  int barrier_variant(int list);

  Timeline timeline_;
  ResourceId ps_, dma_, pl_;
  driver::PipelinedWaveletAccelerator accel_;
  SimDuration mark_;          // makespan at last sync
  SimDuration mark_pl_busy_;  // PL+DMA busy time at last sync
  SimDuration ps_ready_;      // PS events wait for drained outputs
  std::unique_ptr<Filter> filter_;

  // Streaming trace capture (enable_stream_trace).
  bool tracing_ = false;
  std::uint64_t trace_session_ = 0;  // counts enable_stream_trace() calls
  std::vector<driver::PipelinedWaveletAccelerator::BatchTrace> batch_trace_;
  std::size_t batch_drained_ = 0;
  std::vector<detail::StreamOp> cur_ops_;  // the frame being recorded
  detail::FrameOpLists trace_frames_;
  std::vector<std::pair<int, int>> barrier_variant_;  // (list, its variant)
};

// --- frame-level pipelining -------------------------------------------------

struct PipelineOptions {
  // Frame-level overlap. Off reproduces the serial schedule: makespan ==
  // the additive ledger total (up to float summation order).
  bool overlap = true;
  // Frames in flight at once on the overlapped schedule (the 4-stage
  // software-pipeline window). With overlap on, run_pipelined aborts on a
  // depth below 1.
  int depth = 4;
  // Cross-frame line streaming (ISSUE 9): with overlap on and a
  // BatchedFpgaBackend, replay the captured batch stream at line granularity
  // via detail::schedule_streaming — ping-pong buffers persist across frame
  // boundaries and descriptor chains amortize the driver entry
  // (RunConfig::batching.sg_chain_len). Ignored (silently legacy) for other
  // backends. Off keeps the stage-granular schedule bit-identical.
  bool cross_frame = false;
  fusion::FuseConfig fuse;
};

struct PipelineRunResult {
  int frames = 0;
  // Additive ledger sum over frames — what the serial TimedFusionRunner
  // reports for the same backend and input.
  SimDuration serial_total;
  // Completion time of the last frame on the event-queue schedule.
  SimDuration makespan;
  SimDuration ps_busy, pl_busy;
  double sustained_fps = 0.0;
  // Timeline-integrated energy with the bitstream-loaded draw for the whole
  // run (the paper's methodology), and with the engine draw gated to PL-busy
  // intervals (what clock-gating the idle engine would save).
  double energy_mj = 0.0;
  double energy_gated_mj = 0.0;

  double energy_per_frame_mj() const {
    return frames > 0 ? energy_mj / frames : 0.0;
  }
  double speedup_vs_serial() const {
    return makespan.sec() > 0.0 ? serial_total / makespan : 0.0;
  }
};

// Runs every frame pair through `backend` (serial numerics, per-frame
// PS/PL-split stage costs), then re-schedules the stages on a Timeline with
// the 4-stage software pipeline prep -> forward -> fusion -> inverse.
PipelineRunResult run_pipelined(TransformBackend& backend,
                                const std::vector<FramePair>& frames,
                                const PipelineOptions& options = {});

// RunConfig spelling: pipeline_depth <= 1 disables the overlap.
PipelineRunResult run_pipelined(TransformBackend& backend,
                                const std::vector<FramePair>& frames,
                                const RunConfig& config);

// Convenience: run_pipelined over the deterministic sweep scene.
PipelineRunResult probe_pipelined(TransformBackend& backend, const FrameSize& size,
                                  int frames, const PipelineOptions& options = {});

// RunConfig spelling: frame size and count come from the config.
PipelineRunResult probe_pipelined(TransformBackend& backend,
                                  const RunConfig& config);

}  // namespace vf::sched
