#include "src/sched/streaming.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/hw/clock.h"
#include "src/hw/cost_constants.h"

namespace vf::sched::detail {

namespace {

constexpr const char* kStageLabels[4] = {"prep", "fwd", "fus", "inv"};

SimDuration max_of(SimDuration a, SimDuration b) { return a > b ? a : b; }

}  // namespace

void append_sliced_ps(std::vector<StreamOp>* ops, int stage, SimDuration d) {
  if (!(d > SimDuration::zero())) return;
  const SimDuration quantum =
      hw::ps_clock().cycles(hw::cost::kStreamPsSliceCycles);
  int n = 1;
  if (d > quantum) n = static_cast<int>(std::ceil(d / quantum));
  if (n < 1) n = 1;
  const SimDuration slice = d * (1.0 / n);
  for (int i = 0; i < n; ++i) {
    StreamOp op;
    op.kind = StreamOp::Kind::kPs;
    op.stage = stage;
    op.ps = slice;
    ops->push_back(op);
  }
}

std::vector<StreamOp> stage_cost_ops(const std::array<FleetStageCost, 4>& cost) {
  std::vector<StreamOp> ops;
  for (int g = 0; g < 4; ++g) {
    append_sliced_ps(&ops, g, cost[static_cast<std::size_t>(g)].ps);
    if (cost[static_cast<std::size_t>(g)].pl > SimDuration::zero()) {
      StreamOp pl;
      pl.kind = StreamOp::Kind::kPlBlock;
      pl.stage = g;
      pl.ps = cost[static_cast<std::size_t>(g)].pl;
      ops.push_back(pl);
    }
    if (g < 3) {
      StreamOp boundary;
      boundary.kind = StreamOp::Kind::kStageBoundary;
      boundary.stage = g;
      ops.push_back(boundary);
    }
  }
  return ops;
}

FleetSchedule schedule_streaming(const std::vector<StreamingStreamInput>& streams,
                                 int cores, int engines, int pipeline_depth,
                                 bool steal_engines, double spill_wait_frac) {
  FleetSchedule out;
  const int ns = static_cast<int>(streams.size());
  for (int s = 0; s < ns; ++s) {
    if (streams[static_cast<std::size_t>(s)].sg_chain_len < 1) {
      std::fprintf(stderr,
                   "fatal: schedule_streaming: stream %d has sg_chain_len %d "
                   "(must be >= 1)\n",
                   s, streams[static_cast<std::size_t>(s)].sg_chain_len);
      std::abort();
    }
  }
  if (cores < 1) cores = 1;
  if (engines < 1) engines = 1;
  if (pipeline_depth < 1) pipeline_depth = 1;
  for (int c = 0; c < cores; ++c) {
    out.cores.push_back(out.timeline.add_resource("PS core " + std::to_string(c)));
  }
  for (int e = 0; e < engines; ++e) {
    out.engines.push_back(
        out.timeline.add_resource("PL engine " + std::to_string(e)));
    out.dmas.push_back(out.timeline.add_resource("ACP DMA " + std::to_string(e)));
  }

  // Per-engine streaming state. The ping-pong buffers and the armed
  // descriptor chain live with the engine slot, not with a frame or a
  // stream: that is what lets the next frame's rows start filling buffer B
  // while the current frame's last batch still computes out of buffer A.
  struct EngineState {
    SimDuration buffer_free[2];
    long long batches = 0;  // flips the ping-pong buffer
    int chain_pos = 0;
    int chain_owner = -1;  // stream id; a switch re-arms the chain
  };
  std::vector<EngineState> eng(static_cast<std::size_t>(engines));

  struct FrameState {
    int op_ptr = 0;
    bool started = false;
    bool use_spill = false;
    SimDuration ps_end;        // this frame's serial PS chain (floor: arrival)
    SimDuration dep_ready;     // barrier fence for batch inputs
    SimDuration last_out_end;  // drain point of this frame's outputs so far
  };
  struct StreamState {
    int arrival_ptr = 0;
    int queue_len = 0;   // admitted frames whose first op has not dispatched
    int in_flight = 0;   // started, last op not yet committed
    int next_start = 0;  // index into `admitted` of the first unstarted frame
    // Index into `admitted` past the prefix of completed frames. Completed
    // frames are never candidates, so the dispatch scan starts here instead
    // of rescanning every frame the stream has started.
    int first_live = 0;
    std::vector<int> admitted;
    std::vector<FrameState> fs;
  };
  std::vector<StreamState> state(static_cast<std::size_t>(ns));
  out.frames.resize(static_cast<std::size_t>(ns));
  out.stream_ps_busy.assign(static_cast<std::size_t>(ns), SimDuration::zero());
  out.stream_pl_busy.assign(static_cast<std::size_t>(ns), SimDuration::zero());
  for (int s = 0; s < ns; ++s) {
    const std::size_t n = streams[static_cast<std::size_t>(s)].arrivals.size();
    state[static_cast<std::size_t>(s)].fs.resize(n);
    out.frames[static_cast<std::size_t>(s)].resize(n);
  }

  auto stream_at = [&](int s) -> const StreamingStreamInput& {
    return streams[static_cast<std::size_t>(s)];
  };
  auto core_of = [&](int s) { return out.cores[static_cast<std::size_t>(s % cores)]; };
  auto frame_ops = [&](int s, int f) -> const std::vector<StreamOp>& {
    const StreamingStreamInput& in = stream_at(s);
    const FrameState& fs =
        state[static_cast<std::size_t>(s)].fs[static_cast<std::size_t>(f)];
    return fs.use_spill && !in.spill_ops.empty()
               ? in.spill_ops
               : in.frame_ops[static_cast<std::size_t>(f)];
  };
  // Every op of frame (s, f) has committed (or it had none).
  auto done = [&](int s, int f) {
    const FrameState& fs =
        state[static_cast<std::size_t>(s)].fs[static_cast<std::size_t>(f)];
    return fs.op_ptr >= static_cast<int>(frame_ops(s, f).size());
  };
  // Earliest-free engine this stream may use (same policy as schedule_fleet:
  // any engine when stealing, the home slot otherwise; ties prefer home,
  // then the lowest id).
  auto pick_engine = [&](int s) {
    const int home = ((stream_at(s).home_engine % engines) + engines) % engines;
    if (!steal_engines) return home;
    int best = home;
    SimDuration best_free =
        out.timeline.free_at(out.engines[static_cast<std::size_t>(home)]);
    for (int e = 0; e < engines; ++e) {
      const SimDuration free =
          out.timeline.free_at(out.engines[static_cast<std::size_t>(e)]);
      if (free < best_free) {
        best = e;
        best_free = free;
      }
    }
    return best;
  };
  // Stage-boundary ops are pure bookkeeping (no resource time): a phase
  // consumes the previous phase's outputs, so the frame's PS chain may not
  // continue before its drain point, and later batches see the new fence.
  auto apply_boundaries = [&](int s, int f) {
    FrameState& fs =
        state[static_cast<std::size_t>(s)].fs[static_cast<std::size_t>(f)];
    const std::vector<StreamOp>& ops = frame_ops(s, f);
    while (fs.op_ptr < static_cast<int>(ops.size()) &&
           ops[static_cast<std::size_t>(fs.op_ptr)].kind ==
               StreamOp::Kind::kStageBoundary) {
      fs.ps_end = max_of(fs.ps_end, fs.last_out_end);
      fs.dep_ready = fs.last_out_end;
      ++fs.op_ptr;
    }
  };
  // Feasible (ready, start) of frame (s, f)'s next op, without mutating.
  auto op_times = [&](int s, int f, SimDuration* ready_out) {
    const FrameState& fs =
        state[static_cast<std::size_t>(s)].fs[static_cast<std::size_t>(f)];
    const StreamOp& op = frame_ops(s, f)[static_cast<std::size_t>(fs.op_ptr)];
    SimDuration ready = fs.ps_end;
    SimDuration start;
    switch (op.kind) {
      case StreamOp::Kind::kBatch: {
        const int e = pick_engine(s);
        const EngineState& es = eng[static_cast<std::size_t>(e)];
        const int buf =
            stream_at(s).costs.double_buffering ? (es.batches & 1) : 0;
        ready = max_of(ready, op.after_barrier ? fs.last_out_end : fs.dep_ready);
        ready = max_of(ready, es.buffer_free[buf]);
        start = max_of(ready, out.timeline.free_at(core_of(s)));
        break;
      }
      case StreamOp::Kind::kPlBlock: {
        const int e = pick_engine(s);
        start = max_of(ready, out.timeline.free_at(
                                  out.engines[static_cast<std::size_t>(e)]));
        break;
      }
      default:
        start = max_of(ready, out.timeline.free_at(core_of(s)));
        break;
    }
    *ready_out = ready;
    return start;
  };

  // Event-driven dispatch, one op per iteration: commit the eligible op
  // with the earliest feasible start (ties: lower stream, then older
  // frame), unless the next arrival comes strictly earlier — the
  // admission/drop decision is made at the arrival instant, after earlier
  // work has left the queue (same contract as schedule_fleet).
  for (;;) {
    int bs = -1, bframe = -1;
    SimDuration bready, bstart;
    for (int s = 0; s < ns; ++s) {
      StreamState& st = state[static_cast<std::size_t>(s)];
      while (st.first_live < st.next_start &&
             done(s, st.admitted[static_cast<std::size_t>(st.first_live)])) {
        ++st.first_live;
      }
      const int candidates = st.next_start < static_cast<int>(st.admitted.size()) &&
                                     st.in_flight < pipeline_depth
                                 ? st.next_start + 1
                                 : st.next_start;
      for (int i = st.first_live; i < candidates; ++i) {
        const int f = st.admitted[static_cast<std::size_t>(i)];
        if (done(s, f)) continue;
        SimDuration ready;
        const SimDuration start = op_times(s, f, &ready);
        const bool better =
            bs < 0 || start < bstart ||
            (start == bstart && (s < bs || (s == bs && f < bframe)));
        if (better) {
          bs = s;
          bframe = f;
          bready = ready;
          bstart = start;
        }
      }
    }

    int as = -1;
    SimDuration at;
    for (int s = 0; s < ns; ++s) {
      const StreamState& st = state[static_cast<std::size_t>(s)];
      if (st.arrival_ptr >= static_cast<int>(stream_at(s).arrivals.size())) continue;
      const SimDuration a =
          stream_at(s).arrivals[static_cast<std::size_t>(st.arrival_ptr)];
      if (as < 0 || a < at) {
        as = s;
        at = a;
      }
    }

    if (bs < 0 && as < 0) break;

    if (as >= 0 && (bs < 0 || at < bstart)) {
      StreamState& st = state[static_cast<std::size_t>(as)];
      const int f = st.arrival_ptr++;
      const StreamingStreamInput& in = stream_at(as);
      if (in.queue_depth > 0 && st.queue_len >= in.queue_depth) {
        out.frames[static_cast<std::size_t>(as)][static_cast<std::size_t>(f)]
            .dropped = true;
      } else {
        st.admitted.push_back(f);
        ++st.queue_len;
        st.fs[static_cast<std::size_t>(f)].ps_end = in.arrivals[static_cast<std::size_t>(f)];
        apply_boundaries(as, f);
      }
      continue;
    }

    StreamState& st = state[static_cast<std::size_t>(bs)];
    const StreamingStreamInput& in = stream_at(bs);
    FrameState& fs = st.fs[static_cast<std::size_t>(bframe)];
    FleetFrameOutcome& outcome =
        out.frames[static_cast<std::size_t>(bs)][static_cast<std::size_t>(bframe)];
    if (!fs.started) {
      fs.started = true;
      --st.queue_len;
      ++st.in_flight;
      ++st.next_start;
      // Spill decision at first dispatch (schedule_fleet's policy): when
      // the shortest engine wait measured from the arrival already exceeds
      // the configured fraction of the frame period, this frame runs on
      // the NEON cost model instead of queueing on the saturated PL.
      if (spill_wait_frac > 0.0 && !in.spill_ops.empty() &&
          in.period > SimDuration::zero()) {
        const SimDuration engine_free = out.timeline.free_at(
            out.engines[static_cast<std::size_t>(pick_engine(bs))]);
        const SimDuration arrival =
            in.arrivals[static_cast<std::size_t>(bframe)];
        const SimDuration wait =
            engine_free > arrival ? engine_free - arrival : SimDuration::zero();
        if (wait > in.period * spill_wait_frac) {
          fs.use_spill = true;
          outcome.spilled = true;
          apply_boundaries(bs, bframe);
          // The op list changed: re-evaluate the whole candidate set.
          continue;
        }
      }
    }

    const StreamOp& op =
        frame_ops(bs, bframe)[static_cast<std::size_t>(fs.op_ptr)];
    const char* label = kStageLabels[op.stage & 3];
    switch (op.kind) {
      case StreamOp::Kind::kPs: {
        const Timeline::Event ev =
            out.timeline.schedule(core_of(bs), label, bready, op.ps);
        fs.ps_end = ev.end;
        out.stream_ps_busy[static_cast<std::size_t>(bs)] += ev.duration();
        break;
      }
      case StreamOp::Kind::kBatch: {
        const int e = pick_engine(bs);
        EngineState& es = eng[static_cast<std::size_t>(e)];
        if (es.chain_owner != bs) {
          es.chain_owner = bs;
          es.chain_pos = 0;
        }
        const int chain_len = in.sg_chain_len;
        const bool head = es.chain_pos == 0;
        const int buf = in.costs.double_buffering ? (es.batches & 1) : 0;
        if (op.after_barrier) fs.dep_ready = fs.last_out_end;
        const SimDuration ready =
            max_of(max_of(fs.ps_end, fs.dep_ready), es.buffer_free[buf]);
        const Timeline::Event drv = out.timeline.schedule(
            core_of(bs), head ? "drv" : "desc", ready,
            head ? driver::driver_call_time(in.costs)
                 : driver::sg_desc_build_time(in.costs));
        SimDuration in_time =
            driver::transfer_time(in.engine, in.costs, op.words_in);
        if (!head) in_time += driver::sg_desc_fetch_time(in.costs);
        const Timeline::Event ine = out.timeline.schedule(
            out.dmas[static_cast<std::size_t>(e)], "in", drv.end, in_time);
        const Timeline::Event comp = out.timeline.schedule(
            out.engines[static_cast<std::size_t>(e)], "comp", ine.end,
            hw::pl_clock().cycles(op.compute_cycles));
        const Timeline::Event oute = out.timeline.schedule(
            out.dmas[static_cast<std::size_t>(e)], "out", comp.end,
            driver::transfer_time(in.engine, in.costs, op.words_out));
        es.buffer_free[buf] = comp.end;
        ++es.batches;
        es.chain_pos = (es.chain_pos + 1) % chain_len;
        fs.ps_end = drv.end;
        fs.last_out_end = max_of(fs.last_out_end, oute.end);
        out.stream_ps_busy[static_cast<std::size_t>(bs)] += drv.duration();
        out.stream_pl_busy[static_cast<std::size_t>(bs)] +=
            ine.duration() + comp.duration() + oute.duration();
        break;
      }
      case StreamOp::Kind::kPlBlock: {
        const int e = pick_engine(bs);
        const Timeline::Event ev = out.timeline.schedule(
            out.engines[static_cast<std::size_t>(e)], label, bready, op.ps);
        fs.ps_end = ev.end;
        fs.last_out_end = max_of(fs.last_out_end, ev.end);
        out.stream_pl_busy[static_cast<std::size_t>(bs)] += ev.duration();
        break;
      }
      case StreamOp::Kind::kStageBoundary:
        // Consumed by apply_boundaries; never a committed candidate.
        break;
    }
    ++fs.op_ptr;
    apply_boundaries(bs, bframe);
    if (done(bs, bframe)) {
      --st.in_flight;
      outcome.completion = max_of(fs.ps_end, fs.last_out_end);
      outcome.latency =
          outcome.completion - in.arrivals[static_cast<std::size_t>(bframe)];
    }
  }
  return out;
}

}  // namespace vf::sched::detail
