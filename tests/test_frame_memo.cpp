// Per-shape frame memo of TimedFusionRunner: a frame's modeled cost is a
// function of its dims and of the state the backend carries into it, so
// the runner replays the accounting of the first frame per (dims, carried
// state) and applies the recorded result to later ones. These tests pin the
// runner's per-frame output and final counters with golden hashes taken
// before the memo existed, and hold the memoized runner to a loop that
// replays every frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/sched/adaptive.h"
#include "src/sched/fleet.h"
#include "src/sched/pipeline.h"
#include "src/sched/streaming.h"

namespace vf {
namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<const unsigned char*>(data)[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream s;
  s << "0x" << std::hex << v;
  return s.str();
}

// Every counter a backend's accounting advances (zero where it has none).
struct Counters {
  long long lines = 0, driver_calls = 0, chain_heads = 0;
  long long routed_fpga = 0, routed_simd = 0;
};

Counters counters_of(const sched::TransformBackend& backend) {
  Counters c;
  if (const auto* b = dynamic_cast<const sched::BatchedFpgaBackend*>(&backend)) {
    c.lines = b->accelerator().lines();
    c.driver_calls = b->accelerator().driver_calls();
    c.chain_heads = b->accelerator().chain_heads();
  } else if (const auto* f = dynamic_cast<const sched::FpgaBackend*>(&backend)) {
    c.lines = f->accelerator().lines();
  } else if (const auto* a = dynamic_cast<const sched::AdaptiveBackend*>(&backend)) {
    c.lines = a->accelerator().lines();
    c.routed_fpga = a->router().lines_on_fpga();
    c.routed_simd = a->router().lines_on_simd();
  }
  return c;
}

std::uint64_t hash_times(std::uint64_t h, const sched::StageTimes& t) {
  const double v[4] = {t.prep.sec(), t.forward.sec(), t.fusion.sec(),
                       t.inverse.sec()};
  return fnv1a(h, v, sizeof v);
}

// The frame sequences every backend is pinned on: 6 frames at 88x72, 33x25
// and 17x9, and 6 frames alternating 88x72 and 33x25.
struct Sequence {
  const char* name;
  std::vector<sched::FramePair> frames;
};

std::vector<Sequence> sequences() {
  std::vector<Sequence> seqs;
  seqs.push_back({"88x72", sched::make_sweep_frames({88, 72}, 6)});
  seqs.push_back({"33x25", sched::make_sweep_frames({33, 25}, 6)});
  seqs.push_back({"17x9", sched::make_sweep_frames({17, 9}, 6)});
  const auto big = sched::make_sweep_frames({88, 72}, 6);
  const auto small = sched::make_sweep_frames({33, 25}, 6);
  Sequence mixed{"88x72/33x25", {}};
  for (int i = 0; i < 6; ++i) mixed.frames.push_back((i % 2 ? small : big)[i]);
  seqs.push_back(std::move(mixed));
  return seqs;
}

// Every field of every op, and which list each frame replays.
std::uint64_t hash_op_lists(std::uint64_t h, const sched::detail::FrameOpLists& ops) {
  for (const std::vector<sched::detail::StreamOp>& list : ops.lists) {
    const std::uint64_t n = list.size();
    h = fnv1a(h, &n, sizeof n);
    for (const sched::detail::StreamOp& op : list) {
      const int ints[5] = {static_cast<int>(op.kind), op.stage, op.words_in,
                           op.words_out, op.after_barrier ? 1 : 0};
      const double reals[2] = {op.ps.sec(), op.compute_cycles};
      h = fnv1a(h, ints, sizeof ints);
      h = fnv1a(h, reals, sizeof reals);
    }
  }
  return fnv1a(h, ops.frame_list.data(), ops.frame_list.size() * sizeof(int));
}

// Per-frame times and PL split of one runner over `frames`, then the
// backend's final counters.
std::uint64_t hash_runner_sequence(sched::TransformBackend& backend,
                                   const std::vector<sched::FramePair>& frames) {
  sched::TimedFusionRunner runner(backend);
  std::uint64_t h = kFnvBasis;
  for (const sched::FramePair& p : frames) {
    const sched::FrameRunResult r = runner.run_frame_pair(p.visible, p.thermal);
    h = hash_times(h, r.times);
    h = hash_times(h, r.pl_times);
  }
  const Counters c = counters_of(backend);
  return fnv1a(h, &c, sizeof c);
}

// ARM, NEON, FPGA and Adaptive carry only accumulators from frame to frame.
TEST(FrameMemo, RunnerSequencesMatchGoldenHashes) {
  const sched::BackendKind kinds[] = {
      sched::BackendKind::kArm, sched::BackendKind::kNeon,
      sched::BackendKind::kFpga, sched::BackendKind::kAdaptive};
  // [sequence][backend], in the order of sequences() and kinds.
  const std::uint64_t golden[4][4] = {
      {0xebee4cb0d24db0e3ull, 0x75c5e620499a16ebull, 0x8d1f6f121da5fb95ull,
       0x5abb79ca6baee512ull},
      {0xc81cb450419572b3ull, 0x3b5cfc3d3c1a4023ull, 0x7569744de0bd7f15ull,
       0x98cfc8b78f16158dull},
      {0x9a76983c73483b0full, 0x51f949777c55be9bull, 0xb28efcd05269b94aull,
       0x88243dcb97398d8aull},
      {0xb7c8905d76a49fe0ull, 0x689f1f151d674c4bull, 0xce9b7475efc75056ull,
       0xbeceda5145a87f8full},
  };
  const std::vector<Sequence> seqs = sequences();
  for (std::size_t s = 0; s < seqs.size(); ++s) {
    for (int k = 0; k < 4; ++k) {
      const auto backend = sched::make_backend(kinds[k], sched::RunConfig{});
      const std::uint64_t h = hash_runner_sequence(*backend, seqs[s].frames);
      EXPECT_EQ(h, golden[s][k]) << seqs[s].name << " "
                                 << sched::backend_name(kinds[k]) << " " << hex(h);
    }
  }
}

// FPGA+batch carries its driver state (ping-pong parity, a pending barrier)
// into the next frame. Pinned once its pass-1 timeline took a frame-relative
// origin, with stream tracing off and on (then with the captured op lists).
TEST(FrameMemo, BatchedRunnerSequencesMatchGoldenHashes) {
  // [sequence][tracing off, on], in the order of sequences().
  const std::uint64_t golden[4][2] = {
      {0x35dc6902f98fb65aull, 0x4b2c1795c0eae1e2ull},
      {0x58428127fe16df9dull, 0xf53dca20141daf79ull},
      {0xf2cf7536cd1191efull, 0x6eca65aa5c5de0f7ull},
      {0x4fa63b16421cbf72ull, 0x96387cdaca42e59cull},
  };
  const std::vector<Sequence> seqs = sequences();
  for (std::size_t s = 0; s < seqs.size(); ++s) {
    for (int trace = 0; trace < 2; ++trace) {
      sched::RunConfig run;
      run.batching.sg_chain_len = 8;
      sched::BatchedFpgaBackend backend(run);
      if (trace) backend.enable_stream_trace();
      std::uint64_t h = hash_runner_sequence(backend, seqs[s].frames);
      if (trace) h = hash_op_lists(h, backend.take_stream_trace());
      EXPECT_EQ(h, golden[s][trace]) << seqs[s].name << " trace=" << trace << " "
                                     << hex(h);
    }
  }
}

// run_fleet shaped like the fleet4-mixed benchmark workload: two 88x72
// FPGA+batch cameras on the streaming replay and two 32x24 Adaptive cameras,
// 25 fps with jitter, two Q2.16 engine slots and two cores, stealing and
// the NEON spill on.
TEST(FrameMemo, MixedFleetMatchesGoldenHash) {
  std::vector<sched::StreamConfig> streams(4);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    sched::StreamConfig& sc = streams[s];
    sc.backend = s < 2 ? sched::BackendKind::kFpgaBatched
                       : sched::BackendKind::kAdaptive;
    sc.run.frame_size = s < 2 ? sched::FrameSize{88, 72} : sched::FrameSize{32, 24};
    sc.run.frames = 32;
    if (s < 2) {
      sc.run.cross_frame = true;
      sc.run.batching.sg_chain_len = 8;
    }
    sc.arrival.fps = 25.0;
    sc.arrival.jitter_frac = 0.2;
    sc.queue_depth = 4;
  }
  sched::FleetConfig fleet;
  fleet.engines = 2;
  fleet.cores = 2;
  fleet.pipeline_depth = 4;
  fleet.steal_engines = true;
  fleet.spill_wait_frac = 0.5;
  fleet.fixed_point_engines = true;
  fleet.cross_frame = true;
  const sched::FleetResult r = sched::run_fleet(streams, fleet);

  std::uint64_t h = kFnvBasis;
  const int counts[4] = {r.arrived, r.admitted, r.dropped, r.completed};
  const double totals[5] = {r.makespan.sec(), r.ps_busy.sec(), r.pl_busy.sec(),
                            r.energy_mj, r.energy_gated_mj};
  h = fnv1a(h, counts, sizeof counts);
  h = fnv1a(h, totals, sizeof totals);
  for (const sched::StreamStats& st : r.streams) {
    const int c[5] = {st.arrived, st.admitted, st.dropped, st.completed, st.spilled};
    const double v[7] = {st.p50_latency.sec(), st.p99_latency.sec(),
                         st.max_latency.sec(), st.last_completion.sec(),
                         st.ps_busy.sec(),     st.pl_busy.sec(),
                         st.energy_mj};
    h = fnv1a(h, c, sizeof c);
    h = fnv1a(h, v, sizeof v);
  }
  EXPECT_EQ(h, 0x9b821cabd6b15221ull) << hex(h);
}

// --- the memo against a replay of every frame ----------------------------------

struct FrameOut {
  image::ImageF fused;
  sched::StageTimes times, pl_times;
};

// TimedFusionRunner without its memo: every frame replays the accounting,
// with the runner's phase transitions and prep charge.
std::vector<FrameOut> run_unmemoized(sched::TransformBackend& backend,
                                     const std::vector<sched::FramePair>& frames) {
  std::optional<dwt::FusionPlan> plan;
  std::vector<FrameOut> out;
  for (const sched::FramePair& p : frames) {
    if (!plan || plan->rows() != p.visible.rows() ||
        plan->cols() != p.visible.cols()) {
      plan.emplace(p.visible.rows(), p.visible.cols(), dwt::TransformConfig{});
    }
    FrameOut f;
    backend.begin_frame();
    backend.set_phase(sched::Phase::kPrep);
    backend.charge(backend.prep_time(static_cast<int>(p.visible.size() + p.thermal.size())));
    f.fused = plan->run(p.visible, p.thermal, backend.line_filter());
    dwt::FusionPlan::StageHooks hooks;
    hooks.before_forward = [&] { backend.set_phase(sched::Phase::kForward); };
    hooks.before_fusion = [&] { backend.set_phase(sched::Phase::kFusion); };
    hooks.before_inverse = [&] { backend.set_phase(sched::Phase::kInverse); };
    plan->account(backend.line_filter(), hooks);
    backend.finish_frame();
    f.times = backend.frame_times();
    f.pl_times = backend.frame_pl_times();
    out.push_back(std::move(f));
  }
  return out;
}

bool same_times(const sched::StageTimes& a, const sched::StageTimes& b) {
  return a.prep == b.prep && a.forward == b.forward && a.fusion == b.fusion &&
         a.inverse == b.inverse;
}

bool same_bits(const image::ImageF& a, const image::ImageF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// A serial accelerator's busy and stall totals sum frame by frame under the
// memo and line by line in the replay, so they agree to rounding only.
void expect_close_totals(const sched::TransformBackend& a,
                         const sched::TransformBackend& b, const std::string& at) {
  const driver::WaveletAccelerator* x = nullptr;
  const driver::WaveletAccelerator* y = nullptr;
  if (const auto* f = dynamic_cast<const sched::FpgaBackend*>(&a)) {
    x = &f->accelerator();
    y = &dynamic_cast<const sched::FpgaBackend&>(b).accelerator();
  } else if (const auto* f = dynamic_cast<const sched::AdaptiveBackend*>(&a)) {
    x = &f->accelerator();
    y = &dynamic_cast<const sched::AdaptiveBackend&>(b).accelerator();
  }
  if (!x) return;
  EXPECT_NEAR(x->busy_time().sec(), y->busy_time().sec(),
              1e-12 * y->busy_time().sec()) << at;
  EXPECT_NEAR(x->stall_time().sec(), y->stall_time().sec(),
              1e-12 * y->stall_time().sec()) << at;
}

// All five backends at 1, 2 and 8 host threads, FPGA+batch with stream
// tracing off and on: fused bits, per-frame times, final counters and the
// captured op lists of the memoized runner equal a replay of every frame.
TEST(FrameMemo, MemoizedRunnerMatchesAReplayOfEveryFrame) {
  const sched::BackendKind kinds[] = {
      sched::BackendKind::kArm, sched::BackendKind::kNeon,
      sched::BackendKind::kFpga, sched::BackendKind::kFpgaBatched,
      sched::BackendKind::kAdaptive};
  const std::vector<Sequence> seqs = sequences();
  for (const int threads : {1, 2, 8}) {
    for (const sched::BackendKind kind : kinds) {
      const bool batched = kind == sched::BackendKind::kFpgaBatched;
      for (int trace = 0; trace < (batched ? 2 : 1); ++trace) {
        for (const Sequence& seq : seqs) {
          const std::string at = std::string(sched::backend_name(kind)) + " " +
                                 seq.name + " threads=" + std::to_string(threads) +
                                 " trace=" + std::to_string(trace);
          sched::RunConfig run;
          run.host.threads = threads;
          run.batching.sg_chain_len = 8;
          const auto memo_backend = sched::make_backend(kind, run);
          const auto replay_backend = sched::make_backend(kind, run);
          auto* memo_batched = dynamic_cast<sched::BatchedFpgaBackend*>(memo_backend.get());
          auto* replay_batched =
              dynamic_cast<sched::BatchedFpgaBackend*>(replay_backend.get());
          if (trace) {
            memo_batched->enable_stream_trace();
            replay_batched->enable_stream_trace();
          }
          sched::TimedFusionRunner runner(*memo_backend);
          const std::vector<FrameOut> want = run_unmemoized(*replay_backend, seq.frames);
          for (std::size_t f = 0; f < seq.frames.size(); ++f) {
            const sched::FrameRunResult got = runner.run_frame_pair(
                seq.frames[f].visible, seq.frames[f].thermal);
            EXPECT_TRUE(same_bits(got.fused, want[f].fused)) << at << " frame " << f;
            EXPECT_TRUE(same_times(got.times, want[f].times)) << at << " frame " << f;
            EXPECT_TRUE(same_times(got.pl_times, want[f].pl_times))
                << at << " frame " << f;
          }
          const Counters a = counters_of(*memo_backend);
          const Counters b = counters_of(*replay_backend);
          EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << at;
          expect_close_totals(*memo_backend, *replay_backend, at);
          if (trace) {
            const sched::detail::FrameOpLists got = memo_batched->take_stream_trace();
            const sched::detail::FrameOpLists want_ops = replay_batched->take_stream_trace();
            ASSERT_EQ(got.frames(), want_ops.frames()) << at;
            EXPECT_EQ(got.lists.size(), want_ops.lists.size()) << at;
            for (int f = 0; f < got.frames(); ++f) {
              EXPECT_TRUE(got[f] == want_ops[f]) << at << " op list of frame " << f;
            }
          }
        }
      }
    }
  }
}

// A backend that counts its accounting calls.
class CountingBackend : public sched::TransformBackend {
 public:
  const char* name() const override { return "counting"; }
  power::ComputeMode compute_mode() const override {
    return power::ComputeMode::kArmOnly;
  }
  dwt::LineFilter& line_filter() override { return filter_; }
  long long calls() const { return filter_.calls; }

 private:
  struct Filter : dwt::LineFilter {
    void barrier() override { ++calls; }
    void account_analyze(int, int) override { ++calls; }
    void account_synthesize(int, int) override { ++calls; }
    void account_magnitude(int) override { ++calls; }
    void account_select(int) override { ++calls; }
    long long calls = 0;
  } filter_;
};

// One replay per (dims, key): a stream of one size replays its first frame
// only; a new size starts an empty memo, so alternating sizes replay every
// frame.
TEST(FrameMemo, ReplaysOneFramePerShapeAndKey) {
  const auto big = sched::make_sweep_frames({88, 72}, 4);
  const auto small = sched::make_sweep_frames({33, 25}, 1);
  CountingBackend once;
  CountingBackend reference;
  dwt::FusionPlan(72, 88, dwt::TransformConfig{}).account(reference.line_filter());
  const long long per_frame = reference.calls();
  ASSERT_GT(per_frame, 0);

  sched::TimedFusionRunner runner(once);
  for (const sched::FramePair& p : big) runner.run_frame_pair(p.visible, p.thermal);
  EXPECT_EQ(once.calls(), per_frame);

  runner.run_frame_pair(small[0].visible, small[0].thermal);
  runner.run_frame_pair(big[0].visible, big[0].thermal);
  runner.run_frame_pair(big[1].visible, big[1].thermal);
  CountingBackend small_reference;
  dwt::FusionPlan(25, 33, dwt::TransformConfig{}).account(small_reference.line_filter());
  EXPECT_EQ(once.calls(), 2 * per_frame + small_reference.calls());
}

}  // namespace
}  // namespace vf
