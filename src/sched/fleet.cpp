#include "src/sched/fleet.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "src/common/rng.h"
#include "src/hw/fixed_point.h"
#include "src/sched/pipeline.h"
#include "src/sched/streaming.h"

namespace vf::sched {

namespace detail {

namespace {

constexpr const char* kStageLabels[4] = {"prep", "fwd", "fus", "inv"};

SimDuration max_of(SimDuration a, SimDuration b) { return a > b ? a : b; }

}  // namespace

void check_replay_counts(const char* who, int cores, int engines,
                         int pipeline_depth) {
  if (cores < 1 || engines < 1 || pipeline_depth < 1) {
    std::fprintf(stderr,
                 "fatal: %s: %d PS core(s), %d PL engine(s), pipeline depth %d "
                 "(each must be >= 1)\n",
                 who, cores, engines, pipeline_depth);
    std::abort();
  }
}

FleetSchedule schedule_fleet(const std::vector<FleetStreamInput>& streams,
                             int cores, int engines, int pipeline_depth,
                             bool steal_engines, double spill_wait_frac) {
  check_replay_counts("schedule_fleet", cores, engines, pipeline_depth);
  FleetSchedule out;
  const int ns = static_cast<int>(streams.size());
  for (int c = 0; c < cores; ++c) {
    out.cores.push_back(out.timeline.add_resource("PS core " + std::to_string(c)));
  }
  for (int e = 0; e < engines; ++e) {
    out.engines.push_back(
        out.timeline.add_resource("PL engine " + std::to_string(e)));
  }

  struct StreamState {
    int arrival_ptr = 0;  // next frame whose arrival is unprocessed
    int queue_len = 0;    // admitted frames whose prep has not dispatched
    int in_flight = 0;    // prep dispatched, inverse not yet dispatched
    std::vector<int> admitted;       // admitted frame indices, arrival order
    std::array<int, 4> stage_ptr{};  // per stage: next position in `admitted`
    std::vector<std::array<SimDuration, 4>> done;  // per frame, stage end
    std::vector<char> spilled;
  };
  std::vector<StreamState> state(static_cast<std::size_t>(ns));
  out.frames.resize(static_cast<std::size_t>(ns));
  out.stream_ps_busy.assign(static_cast<std::size_t>(ns), SimDuration::zero());
  out.stream_pl_busy.assign(static_cast<std::size_t>(ns), SimDuration::zero());
  for (int s = 0; s < ns; ++s) {
    const std::size_t n = streams[static_cast<std::size_t>(s)].arrivals.size();
    state[static_cast<std::size_t>(s)].done.resize(n);
    state[static_cast<std::size_t>(s)].spilled.assign(n, 0);
    out.frames[static_cast<std::size_t>(s)].resize(n);
  }

  auto stream_at = [&](int s) -> const FleetStreamInput& {
    return streams[static_cast<std::size_t>(s)];
  };
  auto core_of = [&](int s) { return out.cores[static_cast<std::size_t>(s % cores)]; };
  auto stage_cost = [&](int s, int f, int g) -> const FleetStageCost& {
    const FleetStreamInput& in = stream_at(s);
    const bool spilled = state[static_cast<std::size_t>(s)]
                             .spilled[static_cast<std::size_t>(f)] != 0 &&
                         !in.spill_cost.empty();
    const auto& set = spilled ? in.spill_cost : in.cost;
    return set[static_cast<std::size_t>(f)][static_cast<std::size_t>(g)];
  };
  // Earliest-free engine this stream may use: any engine when stealing is
  // on, only the home engine otherwise. Ties prefer the home engine, then
  // the lowest id, so placement is deterministic.
  auto pick_engine = [&](int s) {
    const int home = ((stream_at(s).home_engine % engines) + engines) % engines;
    if (!steal_engines) return home;
    int best = home;
    SimDuration best_free = out.timeline.free_at(out.engines[static_cast<std::size_t>(home)]);
    for (int e = 0; e < engines; ++e) {
      const SimDuration free = out.timeline.free_at(out.engines[static_cast<std::size_t>(e)]);
      if (free < best_free) {
        best = e;
        best_free = free;
      }
    }
    return best;
  };

  // Event-driven dispatch: each iteration commits either the eligible stage
  // with the earliest feasible start (ties: later stage = older frame, then
  // frame, then stream) or, when one comes strictly earlier, the next
  // arrival (admission/drop decision). A dispatch whose start equals an
  // arrival time goes first — the queue is measured *at* the arrival
  // instant, after earlier work has left it.
  for (;;) {
    int bs = -1, bstage = -1, bframe = -1;
    SimDuration bready, bstart;
    for (int s = 0; s < ns; ++s) {
      StreamState& st = state[static_cast<std::size_t>(s)];
      for (int g = 3; g >= 0; --g) {
        if (st.stage_ptr[static_cast<std::size_t>(g)] >=
            static_cast<int>(st.admitted.size())) {
          continue;
        }
        const int pos = st.stage_ptr[static_cast<std::size_t>(g)];
        const int f = st.admitted[static_cast<std::size_t>(pos)];
        SimDuration ready;
        if (g == 0) {
          if (st.in_flight >= pipeline_depth) continue;
          ready = stream_at(s).arrivals[static_cast<std::size_t>(f)];
        } else {
          // Stages drain the admitted list in the same order, so stage g-1
          // of this frame has dispatched iff its pointer moved past ours.
          if (st.stage_ptr[static_cast<std::size_t>(g - 1)] <= pos) continue;
          ready = st.done[static_cast<std::size_t>(f)][static_cast<std::size_t>(g - 1)];
        }
        const FleetStageCost& c = stage_cost(s, f, g);
        SimDuration start;
        if (c.ps > SimDuration::zero() || c.pl == SimDuration::zero()) {
          start = max_of(ready, out.timeline.free_at(core_of(s)));
        } else {
          start = max_of(ready, out.timeline.free_at(
                                    out.engines[static_cast<std::size_t>(pick_engine(s))]));
        }
        const bool better =
            bs < 0 || start < bstart ||
            (start == bstart &&
             (g > bstage || (g == bstage && (f < bframe || (f == bframe && s < bs)))));
        if (better) {
          bs = s;
          bstage = g;
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
      // Admission: drop on overflow of the admitted-but-unstarted backlog.
      StreamState& st = state[static_cast<std::size_t>(as)];
      const int f = st.arrival_ptr++;
      const FleetStreamInput& in = stream_at(as);
      if (in.queue_depth > 0 && st.queue_len >= in.queue_depth) {
        out.frames[static_cast<std::size_t>(as)][static_cast<std::size_t>(f)]
            .dropped = true;
      } else {
        st.admitted.push_back(f);
        ++st.queue_len;
      }
      continue;
    }

    StreamState& st = state[static_cast<std::size_t>(bs)];
    const FleetStreamInput& in = stream_at(bs);
    FleetFrameOutcome& outcome =
        out.frames[static_cast<std::size_t>(bs)][static_cast<std::size_t>(bframe)];
    if (bstage == 0) {
      --st.queue_len;
      ++st.in_flight;
      // Spill decision at first dispatch: when the shortest engine wait
      // (measured from the frame's arrival) already exceeds the configured
      // fraction of the frame period, the PL is saturated for this frame —
      // run it on the NEON cost model instead of queueing.
      if (spill_wait_frac > 0.0 && !in.spill_cost.empty() &&
          in.period > SimDuration::zero()) {
        const SimDuration engine_free = out.timeline.free_at(
            out.engines[static_cast<std::size_t>(pick_engine(bs))]);
        const SimDuration arrival =
            in.arrivals[static_cast<std::size_t>(bframe)];
        const SimDuration wait = engine_free > arrival
                                     ? engine_free - arrival
                                     : SimDuration::zero();
        if (wait > in.period * spill_wait_frac) {
          st.spilled[static_cast<std::size_t>(bframe)] = 1;
          outcome.spilled = true;
        }
      }
    }
    const FleetStageCost& c = stage_cost(bs, bframe, bstage);
    SimDuration end = bready;
    if (c.ps > SimDuration::zero() || c.pl == SimDuration::zero()) {
      end = out.timeline
                .schedule(core_of(bs), kStageLabels[bstage], bready, c.ps)
                .end;
      out.stream_ps_busy[static_cast<std::size_t>(bs)] += c.ps;
    }
    if (c.pl > SimDuration::zero()) {
      const int e = pick_engine(bs);
      end = out.timeline
                .schedule(out.engines[static_cast<std::size_t>(e)],
                          kStageLabels[bstage], end, c.pl)
                .end;
      out.stream_pl_busy[static_cast<std::size_t>(bs)] += c.pl;
    }
    st.done[static_cast<std::size_t>(bframe)][static_cast<std::size_t>(bstage)] = end;
    ++st.stage_ptr[static_cast<std::size_t>(bstage)];
    if (bstage == 3) {
      --st.in_flight;
      outcome.completion = end;
      outcome.latency = end - in.arrivals[static_cast<std::size_t>(bframe)];
    }
  }
  return out;
}

FleetEnergy integrate_fleet_energy(const Timeline& timeline,
                                   const std::vector<ResourceId>& engines,
                                   power::ComputeMode mode) {
  const power::PowerModel pm;
  const auto busy = timeline.busy_intervals(engines);  // one merge, two integrals
  FleetEnergy energy;
  power::PowerRecorder loaded(pm, SimDuration::milliseconds(1));
  loaded.run_intervals(busy, timeline.makespan(), /*idle=*/mode, /*active=*/mode);
  energy.loaded_mj = loaded.exact_energy_mj();
  power::PowerRecorder gated(pm, SimDuration::milliseconds(1));
  gated.run_intervals(busy, timeline.makespan(), power::ComputeMode::kArmOnly,
                      mode);
  energy.gated_mj = gated.exact_energy_mj();
  return energy;
}

}  // namespace detail

namespace {

SimDuration clamp_nonneg(SimDuration d) {
  return d > SimDuration::zero() ? d : SimDuration::zero();
}

std::array<detail::FleetStageCost, 4> split_stage_costs(const FrameRunResult& r) {
  return {{
      {clamp_nonneg(r.times.prep - r.pl_times.prep), r.pl_times.prep},
      {clamp_nonneg(r.times.forward - r.pl_times.forward), r.pl_times.forward},
      {clamp_nonneg(r.times.fusion - r.pl_times.fusion), r.pl_times.fusion},
      {clamp_nonneg(r.times.inverse - r.pl_times.inverse), r.pl_times.inverse},
  }};
}

// Nearest-rank percentile over an ascending-sorted latency list.
SimDuration percentile(const std::vector<SimDuration>& sorted, double q) {
  if (sorted.empty()) return SimDuration::zero();
  const int n = static_cast<int>(sorted.size());
  int idx = static_cast<int>(std::ceil(q * n)) - 1;
  if (idx < 0) idx = 0;
  if (idx >= n) idx = n - 1;
  return sorted[static_cast<std::size_t>(idx)];
}

power::ComputeMode max_mode(power::ComputeMode a, power::ComputeMode b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

}  // namespace

FleetResult run_fleet(const std::vector<StreamConfig>& streams,
                      const FleetConfig& fleet) {
  // The engine count must fit the part: the Table-I model says how many
  // instances of this datapath the xc7z020 holds. Modeling engines the
  // fabric cannot carry would produce plausible-looking nonsense, so refuse
  // loudly (same policy as detail::check_engine_fit).
  const hw::ResourceUsage per_engine =
      fleet.fixed_point_engines
          ? hw::estimate_engine_resources_fixed(fleet.engine_config,
                                                hw::FixedPointFormat{})
          : hw::estimate_engine_resources(fleet.engine_config);
  const int fit = hw::max_engine_instances(hw::DevicePart{}, per_engine);
  if (fleet.engines < 1 || fleet.engines > fit) {
    std::fprintf(stderr,
                 "fatal: %d PL engine(s) requested but the %s datapath fits "
                 "the xc7z020 at most %d time(s) (Table-I model)\n",
                 fleet.engines, fleet.fixed_point_engines ? "fixed-point" : "float32",
                 fit);
    std::abort();
  }

  // Pass 1, per stream: serial numerics through the stream's factory-built
  // backend; per-frame stage costs split into the PS-resident part and the
  // PL remainder (exactly run_pipelined's measurement pass). The NEON spill
  // costs are shape-only, so one probed frame covers the whole stream, and
  // one probe covers every stream of its frame size and transform config
  // (the rest of a RunConfig that NeonBackend reads, the host config, moves
  // no modeled value).
  std::vector<detail::FleetStreamInput> inputs;
  inputs.reserve(streams.size());
  // Cross-frame streaming: per-stream op lists for the batch-granular
  // replay. Batched-FPGA streams record their op stream during pass 1;
  // everything else (CPU backends, serial FPGA, adaptive) replays its
  // stage-granular costs as sliced ops on the same scheduler.
  std::vector<detail::StreamingStreamInput> sinputs;
  if (fleet.cross_frame) sinputs.reserve(streams.size());
  power::ComputeMode mode = power::ComputeMode::kArmOnly;
  struct SpillProbe {
    FrameSize size;
    dwt::TransformConfig transform;
    std::array<detail::FleetStageCost, 4> cost;
  };
  std::vector<SpillProbe> probes;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const StreamConfig& sc = streams[s];
    detail::FleetStreamInput in;
    in.queue_depth = sc.queue_depth;
    in.home_engine = sc.run.engine_id >= 0 ? sc.run.engine_id
                                           : static_cast<int>(s);
    const int frames = sc.run.frames;
    if (sc.arrival.fps > 0.0) {
      if (sc.arrival.jitter_frac < 0.0 || sc.arrival.jitter_frac >= 1.0) {
        std::fprintf(stderr, "fatal: arrival jitter_frac %.3f outside [0, 1)\n",
                     sc.arrival.jitter_frac);
        std::abort();
      }
      in.period = SimDuration::seconds(1.0 / sc.arrival.fps);
      Rng jitter(0xf1ee7ull * (s + 1) + 0x9e3779b9ull);
      for (int f = 0; f < frames; ++f) {
        in.arrivals.push_back(sc.arrival.offset + in.period * static_cast<double>(f) +
                              in.period * (sc.arrival.jitter_frac * jitter.next_double()));
      }
    } else {
      in.arrivals.assign(static_cast<std::size_t>(frames), sc.arrival.offset);
    }

    const std::unique_ptr<TransformBackend> backend =
        make_backend(sc.backend, sc.run);
    mode = max_mode(mode, backend->compute_mode());
    BatchedFpgaBackend* traced = nullptr;
    if (fleet.cross_frame) {
      traced = dynamic_cast<BatchedFpgaBackend*>(backend.get());
      if (traced) traced->enable_stream_trace();
    }
    TimedFusionRunner runner(*backend, sc.run.fuse);
    const std::vector<FramePair> pairs =
        make_sweep_frames(sc.run.frame_size, frames);
    in.cost.reserve(pairs.size());
    for (const FramePair& pair : pairs) {
      in.cost.push_back(
          split_stage_costs(runner.run_frame_pair(pair.visible, pair.thermal)));
    }

    const bool cpu_stream = sc.backend == BackendKind::kArm ||
                            sc.backend == BackendKind::kNeon;
    if (fleet.spill_wait_frac > 0.0 && !cpu_stream && frames > 0) {
      const FrameSize& size = sc.run.frame_size;
      const dwt::TransformConfig& tc = sc.run.fuse.transform;
      auto probe = std::find_if(probes.begin(), probes.end(), [&](const SpillProbe& p) {
        return p.size.width == size.width && p.size.height == size.height &&
               p.transform.levels == tc.levels && p.transform.level1 == tc.level1 &&
               p.transform.higher == tc.higher;
      });
      if (probe == probes.end()) {
        const std::unique_ptr<TransformBackend> neon =
            make_backend(BackendKind::kNeon, sc.run);
        TimedFusionRunner neon_runner(*neon, sc.run.fuse);
        probes.push_back({size, tc,
                          split_stage_costs(neon_runner.run_frame_pair(
                              pairs[0].visible, pairs[0].thermal))});
        probe = probes.end() - 1;
      }
      in.spill_cost.assign(static_cast<std::size_t>(frames), probe->cost);
    }

    if (fleet.cross_frame) {
      detail::StreamingStreamInput sin;
      sin.arrivals = in.arrivals;
      sin.period = in.period;
      sin.queue_depth = in.queue_depth;
      sin.home_engine = in.home_engine;
      sin.engine = sc.run.engine;
      sin.costs = sc.run.driver_costs;
      sin.sg_chain_len = sc.run.batching.sg_chain_len;
      if (traced) {
        sin.op_lists = traced->take_stream_trace();
      } else {
        for (const auto& c : in.cost) {
          sin.op_lists.append(detail::stage_cost_ops(c));
        }
      }
      if (!in.spill_cost.empty()) {
        sin.spill_ops = detail::stage_cost_ops(in.spill_cost.front());
      }
      sinputs.push_back(std::move(sin));
    }
    inputs.push_back(std::move(in));
  }

  detail::FleetSchedule sched =
      fleet.cross_frame
          ? detail::schedule_streaming(sinputs, fleet.cores, fleet.engines,
                                       fleet.pipeline_depth, fleet.steal_engines,
                                       fleet.spill_wait_frac)
          : detail::schedule_fleet(inputs, fleet.cores, fleet.engines,
                                   fleet.pipeline_depth, fleet.steal_engines,
                                   fleet.spill_wait_frac);

  FleetResult result;
  result.makespan = sched.timeline.makespan();
  for (const ResourceId core : sched.cores) {
    result.ps_busy += sched.timeline.busy_time(core);
  }
  for (const ResourceId engine : sched.engines) {
    result.pl_busy += sched.timeline.busy_time(engine);
  }
  for (const ResourceId dma : sched.dmas) {
    result.pl_busy += sched.timeline.busy_time(dma);
  }
  // The DMA channels gate the PL draw too (empty on the legacy path, so
  // its energy integral is unchanged).
  std::vector<ResourceId> pl_side = sched.engines;
  pl_side.insert(pl_side.end(), sched.dmas.begin(), sched.dmas.end());
  const detail::FleetEnergy energy =
      detail::integrate_fleet_energy(sched.timeline, pl_side, mode);
  result.energy_mj = energy.loaded_mj;
  result.energy_gated_mj = energy.gated_mj;

  const SimDuration total_busy = result.ps_busy + result.pl_busy;
  result.streams.reserve(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    StreamStats stats;
    std::vector<SimDuration> latencies;
    for (const detail::FleetFrameOutcome& frame : sched.frames[s]) {
      ++stats.arrived;
      if (frame.dropped) {
        ++stats.dropped;
        continue;
      }
      ++stats.admitted;
      ++stats.completed;
      if (frame.spilled) ++stats.spilled;
      latencies.push_back(frame.latency);
      if (frame.completion > stats.last_completion) {
        stats.last_completion = frame.completion;
      }
      if (frame.latency > stats.max_latency) stats.max_latency = frame.latency;
    }
    std::sort(latencies.begin(), latencies.end());
    stats.p50_latency = percentile(latencies, 0.50);
    stats.p99_latency = percentile(latencies, 0.99);
    stats.ps_busy = sched.stream_ps_busy[s];
    stats.pl_busy = sched.stream_pl_busy[s];
    const SimDuration busy = stats.ps_busy + stats.pl_busy;
    stats.energy_mj = total_busy > SimDuration::zero()
                          ? result.energy_mj * (busy / total_busy)
                          : 0.0;
    result.arrived += stats.arrived;
    result.admitted += stats.admitted;
    result.dropped += stats.dropped;
    result.completed += stats.completed;
    result.streams.push_back(stats);
  }
  return result;
}

}  // namespace vf::sched
