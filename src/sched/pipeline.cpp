#include "src/sched/pipeline.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/hw/clock.h"
#include "src/hw/cost_constants.h"
#include "src/power/recorder.h"
#include "src/sched/fleet.h"
#include "src/simd/kernels.h"

namespace vf::sched {

// --- BatchedFpgaBackend -----------------------------------------------------

// Batch submission and buffer ping-pong depend only on the request sequence
// (sizes + barriers), never on sample values, so the whole Timeline
// interaction lives in accounting: the serial account_*/barrier() replay
// reproduces the exact event schedule at any host thread count. The fusion
// rule routes through kernels() (the dispatch set) instead of hard-coding
// the scalar magnitude/select kernels as the old combined overrides did.
class BatchedFpgaBackend::Filter : public dwt::LineFilter {
 public:
  Filter(BatchedFpgaBackend* owner, driver::PipelinedWaveletAccelerator* accel)
      : owner_(owner), accel_(accel), cpu_(arm_cost_model()) {}

  void barrier() override { accel_->barrier(); }

  ThreadPool* pool() const override { return owner_->host_pool(); }

  void account_analyze(int out_len, int taps) override {
    detail::check_engine_fit(accel_->engine(), taps, /*synthesis=*/false);
    accel_->submit_line(2 * out_len + taps, 2 * out_len,
                        hw::cost::engine_compute_cycles(out_len,
                                                        accel_->engine().slots));
  }

  void account_synthesize(int pairs, int taps) override {
    detail::check_engine_fit(accel_->engine(), taps, /*synthesis=*/true);
    accel_->submit_line(2 * pairs + taps, 2 * pairs,
                        hw::cost::engine_compute_cycles(pairs,
                                                        accel_->engine().slots));
  }

  void account_magnitude(int n) override {
    owner_->charge(hw::ps_clock().cycles(cpu_.magnitude_cycles_per_sample * n));
  }

  void account_select(int n) override {
    owner_->charge(hw::ps_clock().cycles(cpu_.select_cycles_per_sample * n));
  }

 private:
  BatchedFpgaBackend* owner_;
  driver::PipelinedWaveletAccelerator* accel_;
  CpuCostModel cpu_;
};

BatchedFpgaBackend::BatchedFpgaBackend(const RunConfig& config)
    : TransformBackend(config.host),
      ps_(timeline_.add_resource("PS core")),
      dma_(timeline_.add_resource("ACP DMA")),
      pl_(timeline_.add_resource("PL engine")),
      accel_(config.engine, config.driver_costs, config.batching, &timeline_,
             ps_, dma_, pl_),
      filter_(std::make_unique<Filter>(this, &accel_)) {}

BatchedFpgaBackend::~BatchedFpgaBackend() = default;

dwt::LineFilter& BatchedFpgaBackend::line_filter() { return *filter_; }

void BatchedFpgaBackend::charge(SimDuration d) {
  // Generic PS work (prep, fusion-rule kernels) becomes a PS event; the
  // ledger is reconciled from the makespan at the next sync, so no direct
  // ledger_add here — adding both would double-charge.
  timeline_.schedule(ps_, "ps", ps_ready_, d);
  if (tracing_) {
    drain_trace(phase());
    detail::append_sliced_ps(&cur_ops_, static_cast<int>(phase()), d);
  }
}

void BatchedFpgaBackend::on_begin_frame() {
  timeline_.reset();
  accel_.rebase();
  mark_ = SimDuration::zero();
  mark_pl_busy_ = SimDuration::zero();
  ps_ready_ = SimDuration::zero();
}

void BatchedFpgaBackend::on_phase_exit(Phase old_phase) {
  sync(old_phase);
  if (tracing_) {
    drain_trace(old_phase);
    push_stage_boundary(old_phase);
  }
}

void BatchedFpgaBackend::finish_frame() {
  sync(phase());
  if (tracing_) {
    drain_trace(phase());
    trace_frames_.append(cur_ops_);
    cur_ops_.clear();  // keeps its capacity for the next frame
    batch_trace_.clear();
    batch_drained_ = 0;
  }
}

void BatchedFpgaBackend::enable_stream_trace() {
  tracing_ = true;
  ++trace_session_;
  batch_trace_.clear();
  batch_drained_ = 0;
  cur_ops_.clear();
  trace_frames_ = {};
  barrier_variant_.clear();
  accel_.set_trace(&batch_trace_);
}

detail::FrameOpLists BatchedFpgaBackend::take_stream_trace() {
  tracing_ = false;
  accel_.set_trace(nullptr);
  return std::exchange(trace_frames_, {});
}

struct BatchedFpgaBackend::Record : FrameRecord {
  // The frame's counter share; until end_record(), the counters before it.
  driver::PipelinedWaveletAccelerator::Counters share;
  bool barrier_at_start = false;  // a barrier pending at the frame's start
  bool barrier_pending = false;   // at the frame's end
  int op_list = -1;               // tracing: the frame's stored op list
};

std::uint64_t BatchedFpgaBackend::memo_key() const {
  return static_cast<std::uint64_t>(accel_.driver_calls() & 1) |
         (tracing_ ? trace_session_ << 1 : 0u);
}

std::unique_ptr<TransformBackend::FrameRecord> BatchedFpgaBackend::begin_record() {
  auto record = std::make_unique<Record>();
  record->share = accel_.counters();
  record->barrier_at_start = accel_.barrier_pending();
  return record;
}

void BatchedFpgaBackend::end_record(FrameRecord* record) {
  TransformBackend::end_record(record);
  Record* r = static_cast<Record*>(record);
  const driver::PipelinedWaveletAccelerator::Counters now = accel_.counters();
  r->share = {now.lines - r->share.lines, now.driver_calls - r->share.driver_calls,
              now.chain_heads - r->share.chain_heads};
  r->barrier_pending = accel_.barrier_pending();
  if (tracing_) r->op_list = trace_frames_.frame_list.back();
}

// A hit leaves the pass-1 timeline and every time-valued field at the frame
// origin, as begin_frame() does; nothing reads them before the next frame
// resets them.
void BatchedFpgaBackend::apply_record(const FrameRecord& record) {
  TransformBackend::apply_record(record);
  const Record& r = static_cast<const Record&>(record);
  on_begin_frame();
  if (tracing_) {
    trace_frames_.repeat(accel_.barrier_pending() == r.barrier_at_start
                             ? r.op_list
                             : barrier_variant(r.op_list));
  }
  accel_.skip_frame(r.share, r.barrier_pending);
}

// A pending barrier at a frame's start (rebase() leaves nothing for it to
// wait on) marks only the frame's first batch after_barrier, so the frame's
// op list is the recorded one with that one flag flipped: built once per
// stored list and trace session.
int BatchedFpgaBackend::barrier_variant(int list) {
  for (const auto& [from, to] : barrier_variant_) {
    if (from == list) return to;
  }
  std::vector<detail::StreamOp> ops = trace_frames_.lists[static_cast<std::size_t>(list)];
  const auto first = std::find_if(ops.begin(), ops.end(), [](const detail::StreamOp& op) {
    return op.kind == detail::StreamOp::Kind::kBatch;
  });
  if (first != ops.end()) first->after_barrier = !first->after_barrier;
  trace_frames_.lists.push_back(std::move(ops));
  const int to = static_cast<int>(trace_frames_.lists.size()) - 1;
  barrier_variant_.emplace_back(list, to);
  return to;
}

void BatchedFpgaBackend::drain_trace(Phase stage) {
  for (; batch_drained_ < batch_trace_.size(); ++batch_drained_) {
    const auto& b = batch_trace_[batch_drained_];
    detail::StreamOp op;
    op.kind = detail::StreamOp::Kind::kBatch;
    op.stage = static_cast<int>(stage);
    op.words_in = b.words_in;
    op.words_out = b.words_out;
    op.compute_cycles = b.compute_cycles;
    op.after_barrier = b.after_barrier;
    cur_ops_.push_back(op);
  }
}

void BatchedFpgaBackend::push_stage_boundary(Phase stage) {
  // A leading or doubled boundary carries no information (the next frame's
  // set_phase(kPrep) re-exits the previous frame's kInverse after
  // finish_frame already drained it) — skip those.
  if (cur_ops_.empty() ||
      cur_ops_.back().kind == detail::StreamOp::Kind::kStageBoundary) {
    return;
  }
  detail::StreamOp op;
  op.kind = detail::StreamOp::Kind::kStageBoundary;
  op.stage = static_cast<int>(stage);
  cur_ops_.push_back(op);
}

void BatchedFpgaBackend::sync(Phase charge_to) {
  accel_.flush();
  const SimDuration now = timeline_.makespan();
  ledger_add(charge_to, now - mark_);
  const SimDuration pl_busy = timeline_.busy_time(pl_) + timeline_.busy_time(dma_);
  ledger_add_pl(charge_to, pl_busy - mark_pl_busy_);
  mark_ = now;
  mark_pl_busy_ = pl_busy;
  // A phase consumes the previous phase's outputs: later PS work must wait
  // for the drain point.
  ps_ready_ = now;
}

// --- frame-level pipelining -------------------------------------------------

namespace {

struct StageCost {
  SimDuration ps, pl;
  const char* label;
};

SimDuration clamp_nonneg(SimDuration d) {
  return d > SimDuration::zero() ? d : SimDuration::zero();
}

}  // namespace

PipelineRunResult run_pipelined(TransformBackend& backend,
                                const std::vector<FramePair>& frames,
                                const PipelineOptions& options) {
  if (options.overlap && options.depth < 1) {
    std::fprintf(stderr,
                 "fatal: run_pipelined: pipeline depth %d with overlap on "
                 "(must be >= 1)\n",
                 options.depth);
    std::abort();
  }
  PipelineRunResult result;
  result.frames = static_cast<int>(frames.size());

  // Pass 1: serial numerics + per-frame stage costs split into the work the
  // PS core must execute and the PL-resident remainder it may overlap.
  //
  // Cross-frame streaming (ISSUE 9) records each frame's op stream during
  // this same pass; backends without a batch trace fall back to the legacy
  // stage-granular overlap silently.
  constexpr int kStages = 4;
  BatchedFpgaBackend* streaming_backend = nullptr;
  if (options.overlap && options.cross_frame) {
    streaming_backend = dynamic_cast<BatchedFpgaBackend*>(&backend);
    if (streaming_backend) streaming_backend->enable_stream_trace();
  }
  TimedFusionRunner runner(backend, options.fuse);
  std::vector<std::array<StageCost, kStages>> cost;
  cost.reserve(frames.size());
  for (const FramePair& pair : frames) {
    const FrameRunResult r = runner.run_frame_pair(pair.visible, pair.thermal);
    result.serial_total += r.times.total();
    cost.push_back({{
        {clamp_nonneg(r.times.prep - r.pl_times.prep), r.pl_times.prep, "prep"},
        {clamp_nonneg(r.times.forward - r.pl_times.forward), r.pl_times.forward,
         "fwd"},
        {clamp_nonneg(r.times.fusion - r.pl_times.fusion), r.pl_times.fusion,
         "fus"},
        {clamp_nonneg(r.times.inverse - r.pl_times.inverse), r.pl_times.inverse,
         "inv"},
    }});
  }

  // Pass 2: re-schedule the stages on a fresh timeline. The PS part of a
  // stage (driver calls, fusion rule, prep) runs on the PS core; the PL part
  // follows it on the engine+DMA resource. Stages of one frame chain by data
  // dependency; stages of *different* frames share only the resources, which
  // is where the overlap comes from.
  //
  // Energy in both branches: `energy_mj` keeps the paper's methodology (the
  // loaded bitstream's +3.6% draw for the whole run when the backend uses
  // the PL at all); `energy_gated_mj` charges the engine draw only while the
  // PL/DMA resource is actually busy — and because intervals are merged,
  // concurrent PS+PL activity is charged once.
  const power::ComputeMode mode = backend.compute_mode();
  if (streaming_backend) {
    // Streaming replay: the captured batch stream re-schedules at line
    // granularity on one core + one engine slot (with its own DMA channel).
    // Ping-pong buffer state persists across frames, so the next frame's
    // rows fill buffer B while the current frame's last batch computes out
    // of buffer A, and descriptor chains amortize the driver entry.
    // Built in place: passing `{in}` would copy every frame's op list.
    std::vector<detail::StreamingStreamInput> inputs(1);
    detail::StreamingStreamInput& in = inputs[0];
    in.arrivals.assign(frames.size(), SimDuration::zero());
    in.op_lists = streaming_backend->take_stream_trace();
    in.engine = streaming_backend->accelerator().engine();
    in.costs = streaming_backend->accelerator().costs();
    in.sg_chain_len = streaming_backend->accelerator().batching().sg_chain_len;
    const detail::FleetSchedule sched = detail::schedule_streaming(
        inputs, /*cores=*/1, /*engines=*/1, options.depth,
        /*steal_engines=*/true, /*spill_wait_frac=*/0.0);
    result.makespan = sched.timeline.makespan();
    result.ps_busy = sched.timeline.busy_time(sched.cores[0]);
    result.pl_busy = sched.timeline.busy_time(sched.engines[0]) +
                     sched.timeline.busy_time(sched.dmas[0]);
    const detail::FleetEnergy energy = detail::integrate_fleet_energy(
        sched.timeline, {sched.engines[0], sched.dmas[0]}, mode);
    result.energy_mj = energy.loaded_mj;
    result.energy_gated_mj = energy.gated_mj;
  } else if (options.overlap) {
    // Overlapped schedule = a 1-stream fleet with every frame ready at t=0
    // and an unbounded queue. Sharing detail::schedule_fleet (rather than a
    // second scheduler) is what makes the fleet's 1-stream case reproduce
    // this path bit-for-bit (tests/test_fleet.cpp).
    detail::FleetStreamInput in;
    in.arrivals.assign(frames.size(), SimDuration::zero());
    in.cost.reserve(cost.size());
    for (const auto& c : cost) {
      in.cost.push_back({{{c[0].ps, c[0].pl},
                          {c[1].ps, c[1].pl},
                          {c[2].ps, c[2].pl},
                          {c[3].ps, c[3].pl}}});
    }
    const detail::FleetSchedule sched = detail::schedule_fleet(
        {in}, /*cores=*/1, /*engines=*/1, options.depth,
        /*steal_engines=*/true, /*spill_wait_frac=*/0.0);
    result.makespan = sched.timeline.makespan();
    result.ps_busy = sched.timeline.busy_time(sched.cores[0]);
    result.pl_busy = sched.timeline.busy_time(sched.engines[0]);
    const detail::FleetEnergy energy =
        detail::integrate_fleet_energy(sched.timeline, sched.engines, mode);
    result.energy_mj = energy.loaded_mj;
    result.energy_gated_mj = energy.gated_mj;
  } else {
    // Serial schedule: every stage waits for the previous one, frames do
    // not overlap — the event-queue equivalent of the additive ledger.
    Timeline tl;
    const ResourceId ps = tl.add_resource("PS core");
    const ResourceId pl = tl.add_resource("PL engine + DMA");
    const int n = result.frames;
    SimDuration prev;
    for (int f = 0; f < n; ++f) {
      for (int s = 0; s < kStages; ++s) {
        const StageCost& c = cost[static_cast<std::size_t>(f)][static_cast<std::size_t>(s)];
        SimDuration end = prev;
        if (c.ps > SimDuration::zero() || c.pl == SimDuration::zero()) {
          end = tl.schedule(ps, c.label, prev, c.ps).end;
        }
        if (c.pl > SimDuration::zero()) {
          end = tl.schedule(pl, c.label, end, c.pl).end;
        }
        prev = end;
      }
    }
    result.makespan = tl.makespan();
    result.ps_busy = tl.busy_time(ps);
    result.pl_busy = tl.busy_time(pl);
    const detail::FleetEnergy energy =
        detail::integrate_fleet_energy(tl, {pl}, mode);
    result.energy_mj = energy.loaded_mj;
    result.energy_gated_mj = energy.gated_mj;
  }
  result.sustained_fps =
      result.makespan.sec() > 0.0 ? result.frames / result.makespan.sec() : 0.0;
  return result;
}

PipelineRunResult run_pipelined(TransformBackend& backend,
                                const std::vector<FramePair>& frames,
                                const RunConfig& config) {
  PipelineOptions options;
  options.overlap = config.pipeline_depth > 1;
  options.depth = config.pipeline_depth;
  options.cross_frame = config.cross_frame;
  options.fuse = config.fuse;
  return run_pipelined(backend, frames, options);
}

PipelineRunResult probe_pipelined(TransformBackend& backend, const FrameSize& size,
                                  int frames, const PipelineOptions& options) {
  return run_pipelined(backend, make_sweep_frames(size, frames), options);
}

PipelineRunResult probe_pipelined(TransformBackend& backend,
                                  const RunConfig& config) {
  return run_pipelined(
      backend, make_sweep_frames(config.frame_size, config.frames), config);
}

}  // namespace vf::sched
