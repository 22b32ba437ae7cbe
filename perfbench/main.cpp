// Repository benchmark program: runs one workload through the public entry
// points (sched::make_backend + sched::run_pipelined, or sched::run_fleet)
// and prints a report followed by one JSON result line. perfbench/run.py
// builds and invokes it; perfbench/README.md explains the workloads and
// every metric.
//
//   vf_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                [--setup-only]
//
// --trace 0 times closed-loop clips (one run_pipelined / run_fleet call
// over a fixed run of frame pairs, the next submitted only after the
// previous returns) and reports the end-to-end metrics. --trace 1 is the
// separate outside-in traced run: it times the calls into each module's
// public functions from this file and reports per-layer metrics, whose
// self times must add back up to the untraced per-pair time.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/fusion/fuse.h"
#include "src/fusion/fused_plan.h"
#include "src/sched/fleet.h"
#include "src/sched/pipeline.h"
#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

namespace {

using namespace vf;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The traced run fails when the layer self times do not add back up to the
// untraced per-pair time within this share.
constexpr double kClosureTolerance = 0.2;
// Clips run their numerics on one host thread. On a shared virtual machine,
// runs that wake pool workers on other vCPUs swing by 30-50% with
// hypervisor steal time, while one-thread runs stay within a few percent
// over the same minutes. The traced run still reports nproc-thread fusion
// and its scaling, and the untraced run checks that modeled output is
// identical at nproc threads.
constexpr int kHostThreads = 1;
constexpr int kSgChainLen = 8;
constexpr int kPipelineDepth = 4;

// --- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
};

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr,
               "vf_perfbench: %s\nusage: vf_perfbench --workload NAME --seed N "
               "--seconds S [--trace 0|1] [--setup-only]\n",
               what);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else {
      usage_error(("unknown argument '" + arg + "'").c_str());
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (!(o.seconds > 0.0)) usage_error("--seconds must be positive");
  return o;
}

// --- seeded input generator -------------------------------------------------

// make_sweep_frames' scene (visible: ramp, texture, building edge, window;
// thermal: cool background plus a hot Gaussian target), but seeded, and the
// target moves on a torus so it never leaves the frame: every pair of a long
// run carries a moving hot spot, not a static background.
sched::FramePair make_pair(const sched::FrameSize& size, std::uint64_t seed,
                           int stream, int f) {
  const int rows = size.height, cols = size.width;
  Rng path(seed * 0x9e3779b97f4a7c15ull + 0x51ed27u * (stream + 1) +
           131u * rows + cols);
  const double r0 = path.next_double(), c0 = path.next_double();
  const double vr = 0.03 + 0.02 * path.next_double();
  const double vc = 0.05 + 0.02 * path.next_double();
  Rng noise(seed * 0xd1b54a32d192ed03ull + 0x5eedull * (f + 1) +
            0x2545f491u * (stream + 1) + 13u * rows + 7u * cols);

  const auto frac = [](double x) { return x - std::floor(x); };
  const float tr = static_cast<float>(rows * frac(r0 + vr * f));
  const float tc = static_cast<float>(cols * frac(c0 + vc * f));
  const auto wrap = [](float d, int n) {
    d = std::fabs(d);
    return std::min(d, static_cast<float>(n) - d);
  };
  const float edge_col = 0.35f * cols;
  const float win_r0 = 0.2f * rows, win_r1 = 0.45f * rows;
  const float win_c0 = 0.55f * cols, win_c1 = 0.8f * cols;
  const float sigma = 0.08f * (rows + cols);

  sched::FramePair pair;
  pair.visible = image::ImageF(rows, cols);
  pair.thermal = image::ImageF(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      float vis = 0.35f + 0.25f * static_cast<float>(r) / rows;
      vis += 0.08f * std::sin(0.55f * c) * std::cos(0.35f * r);
      if (c < edge_col) vis += 0.18f;
      if (r > win_r0 && r < win_r1 && c > win_c0 && c < win_c1) vis -= 0.22f;
      vis += noise.next_float(-0.02f, 0.02f);
      float th = 0.12f + 0.05f * static_cast<float>(c) / cols;
      if (c < edge_col) th += 0.04f;
      const float dr = wrap(r - tr, rows), dc = wrap(c - tc, cols);
      th += 0.75f * std::exp(-(dr * dr + dc * dc) / (2.0f * sigma * sigma));
      th += noise.next_float(-0.015f, 0.015f);
      pair.visible(r, c) = std::clamp(vis, 0.0f, 1.0f);
      pair.thermal(r, c) = std::clamp(th, 0.0f, 1.0f);
    }
  }
  return pair;
}

// --- workloads --------------------------------------------------------------

enum class Kind { kStream, kFleet };

struct Workload {
  const char* name;
  Kind kind;
  sched::FrameSize size;  // single-camera frame size (stream workloads)
  int clip_pairs;         // pairs per run_pipelined clip; frames per fleet stream
  int distinct_clips;     // input ring size, in clips (stream workloads)
};

const Workload kWorkloads[] = {
    {"cam88-stream", Kind::kStream, {88, 72}, 64, 2},
    {"hd640-stream", Kind::kStream, {640, 480}, 4, 2},
    {"fleet4-mixed", Kind::kFleet, {}, 32, 1},
};

// FPGA+batch with cross-frame streaming and scatter-gather chains.
sched::RunConfig stream_config(const sched::FrameSize& size, int frames,
                               int threads) {
  sched::RunConfig cfg;
  cfg.frame_size = size;
  cfg.frames = frames;
  cfg.host.threads = threads;
  cfg.pipeline_depth = kPipelineDepth;
  cfg.cross_frame = true;
  cfg.batching.sg_chain_len = kSgChainLen;
  return cfg;
}

// Two 88x72 streaming FPGA+batch cameras and two 32x24 Adaptive cameras
// (their short lines route to NEON), 25 fps each with 20% jitter.
std::vector<sched::StreamConfig> fleet_streams(int frames, int threads) {
  std::vector<sched::StreamConfig> streams(4);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    sched::StreamConfig& sc = streams[s];
    const bool fpga = s < 2;
    sc.backend = fpga ? sched::BackendKind::kFpgaBatched
                      : sched::BackendKind::kAdaptive;
    if (fpga) {
      sc.run = stream_config({88, 72}, frames, threads);
    } else {
      sc.run.frame_size = {32, 24};
      sc.run.frames = frames;
      sc.run.host.threads = threads;
    }
    sc.arrival.fps = 25.0;
    sc.arrival.jitter_frac = 0.2;
    sc.queue_depth = 4;
  }
  return streams;
}

sched::FleetConfig fleet_config() {
  sched::FleetConfig fleet;
  fleet.engines = 2;
  fleet.cores = 2;
  fleet.pipeline_depth = kPipelineDepth;
  fleet.steal_engines = true;
  fleet.spill_wait_frac = 0.5;
  fleet.fixed_point_engines = true;  // two Q2.16 engine slots
  fleet.cross_frame = true;
  return fleet;
}

// --- one clip ---------------------------------------------------------------

// Modeled outcome of one clip. `exact` holds every modeled field and must be
// bit-identical across clips, runs and host thread counts.
struct ClipOutcome {
  std::vector<double> exact;
  double modeled_fps = 0.0;
  double mj_per_frame = 0.0;
  double gated_mj_per_frame = 0.0;
  double p99_ms = 0.0;  // worst per-stream p99 (fleet only)
  double drop_frac = 0.0;
  double spill_frac = 0.0;
  double ps_busy_frac = 0.0;
  double pl_busy_frac = 0.0;
};

ClipOutcome outcome_of(const sched::PipelineRunResult& r) {
  ClipOutcome o;
  o.exact = {r.makespan.sec(), r.serial_total.sec(), r.ps_busy.sec(),
             r.pl_busy.sec(),  r.sustained_fps,      r.energy_mj,
             r.energy_gated_mj};
  o.modeled_fps = r.sustained_fps;
  o.mj_per_frame = r.energy_per_frame_mj();
  o.gated_mj_per_frame = r.frames > 0 ? r.energy_gated_mj / r.frames : 0.0;
  o.ps_busy_frac = r.ps_busy / r.makespan;
  o.pl_busy_frac = r.pl_busy / r.makespan;
  return o;
}

ClipOutcome outcome_of(const sched::FleetResult& r, const sched::FleetConfig& f) {
  ClipOutcome o;
  o.exact = {r.makespan.sec(),      r.energy_mj,         r.energy_gated_mj,
             r.ps_busy.sec(),       r.pl_busy.sec(),     double(r.arrived),
             double(r.completed),   double(r.dropped)};
  int spilled = 0;
  for (const sched::StreamStats& s : r.streams) {
    o.exact.insert(o.exact.end(),
                   {s.p50_latency.sec(), s.p99_latency.sec(), s.max_latency.sec(),
                    double(s.spilled), double(s.dropped), s.energy_mj});
    o.p99_ms = std::max(o.p99_ms, s.p99_latency.ms());
    spilled += s.spilled;
  }
  o.modeled_fps = r.completed / r.makespan.sec();
  o.mj_per_frame = r.energy_per_frame_mj();
  o.gated_mj_per_frame = r.completed > 0 ? r.energy_gated_mj / r.completed : 0.0;
  o.drop_frac = r.arrived > 0 ? double(r.dropped) / r.arrived : 0.0;
  o.spill_frac = r.completed > 0 ? double(spilled) / r.completed : 0.0;
  o.ps_busy_frac = r.ps_busy / (r.makespan * f.cores);
  o.pl_busy_frac = r.pl_busy / (r.makespan * f.engines);
  return o;
}

// One pair the traced run fuses: its inputs, the configuration of the
// stream it belongs to, and its single-thread scalar reference output.
struct TracedPair {
  const sched::FramePair* pair;
  sched::BackendKind backend;
  const sched::RunConfig* run;
  image::ImageF reference;
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, int threads, int nproc)
      : w_(w), threads_(threads), nproc_(nproc) {
    if (w.kind == Kind::kStream) {
      config_ = stream_config(w.size, w.clip_pairs, threads);
      clips_.resize(static_cast<std::size_t>(w.distinct_clips));
      for (int c = 0; c < w.distinct_clips; ++c) {
        for (int i = 0; i < w.clip_pairs; ++i) {
          clips_[c].push_back(make_pair(w.size, seed, 0, c * w.clip_pairs + i));
        }
      }
    } else {
      streams_ = fleet_streams(w.clip_pairs, threads);
      fleet_ = fleet_config();
      // The seeded pairs the traced run fuses in place of each stream's
      // frames (run_fleet generates the frames it fuses itself).
      clips_.resize(streams_.size());
      for (std::size_t s = 0; s < streams_.size(); ++s) {
        for (int f = 0; f < w.clip_pairs; ++f) {
          clips_[s].push_back(make_pair(streams_[s].run.frame_size, seed,
                                        static_cast<int>(s), f));
        }
      }
    }
  }

  int pairs_per_clip() const {
    return w_.kind == Kind::kStream
               ? w_.clip_pairs
               : w_.clip_pairs * static_cast<int>(streams_.size());
  }

  // One closed-loop clip: a fresh backend and one run_pipelined call, or one
  // run_fleet call.
  ClipOutcome run_clip(int index, int threads) const {
    if (w_.kind == Kind::kStream) {
      sched::RunConfig cfg = config_;
      cfg.host.threads = threads;
      const std::unique_ptr<sched::TransformBackend> backend =
          sched::make_backend(sched::BackendKind::kFpgaBatched, cfg);
      return outcome_of(sched::run_pipelined(
          *backend, clips_[static_cast<std::size_t>(index) % clips_.size()], cfg));
    }
    std::vector<sched::StreamConfig> streams = streams_;
    for (sched::StreamConfig& sc : streams) sc.run.host.threads = threads;
    return outcome_of(sched::run_fleet(streams, fleet_), fleet_);
  }

  // The pairs of traced clip `index`, with the configuration of the stream
  // each belongs to; the caller fills in the references.
  std::vector<TracedPair> traced_pairs(int index) const {
    std::vector<TracedPair> out;
    if (w_.kind == Kind::kStream) {
      for (const sched::FramePair& p :
           clips_[static_cast<std::size_t>(index) % clips_.size()]) {
        out.push_back({&p, sched::BackendKind::kFpgaBatched, &config_, {}});
      }
    } else {
      for (std::size_t s = 0; s < streams_.size(); ++s) {
        for (const sched::FramePair& p : clips_[s]) {
          out.push_back({&p, streams_[s].backend, &streams_[s].run, {}});
        }
      }
    }
    return out;
  }

  int distinct_traced_clips() const {
    return w_.kind == Kind::kStream ? static_cast<int>(clips_.size()) : 1;
  }

  const Workload& workload() const { return w_; }
  const sched::FleetConfig& fleet() const { return fleet_; }
  int threads() const { return threads_; }
  int nproc() const { return nproc_; }

 private:
  Workload w_;
  int threads_;
  int nproc_;
  sched::RunConfig config_;
  std::vector<sched::StreamConfig> streams_;
  sched::FleetConfig fleet_;
  std::vector<std::vector<sched::FramePair>> clips_;
};

// --- correctness ------------------------------------------------------------

image::ImageF reference_fuse(const sched::FramePair& p) {
  dwt::KernelLineFilter scalar(simd::scalar_kernels());
  return fusion::fuse_frames(p.visible, p.thermal, fusion::FuseConfig{}, scalar);
}

bool same_bits(const image::ImageF& a, const image::ImageF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Tally {
  long long attempted = 0;
  long long failed = 0;
  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "vf_perfbench: MISMATCH: %s\n", what);
    }
  }
};

// --- kernel spans -----------------------------------------------------------

// The simd KernelSet with every entry wrapped in a span that accumulates
// call time, lines, counted flops and the line-length mix. Single-threaded
// use only (the traced fuse_frames call runs on a pool-less filter).
enum Family {
  kAnalyzeMl,
  kSynthesizeMl,
  kAnalyzeMagMl,
  kSelectSynthMl,
  kOtherKernels,
  kFamilies
};
const char* const kFamilyNames[kFamilies] = {"analyze_ml", "synthesize_ml",
                                             "analyze_mag_ml", "select_synth_ml",
                                             "other"};

struct KernelSpanStats {
  double seconds = 0.0;
  double flops = 0.0;
  long long lines = 0;
  long long calls = 0;
};

KernelSpanStats g_kernel[kFamilies];
std::map<std::pair<int, int>, long long> g_line_mix;  // (family, length) -> lines
// (nlines, pairs, taps) -> calls of select_synth_ml, for the synthesize_ml sweep.
std::map<std::tuple<int, int, int>, long long> g_synth_shapes;

const simd::KernelSet& base_kernels() { return simd::simd_kernels(); }

void record(Family fam, Clock::time_point t0, int lines, int len, double flops) {
  KernelSpanStats& s = g_kernel[fam];
  s.seconds += seconds_between(t0, Clock::now());
  s.flops += flops;
  s.lines += lines;
  s.calls += 1;
  g_line_mix[{fam, len}] += lines;
}

// Counted flops: a MAC is 2, a magnitude sample 4 (2 mul, add, sqrt), an
// average sample 2; selects move data and count 0.
void k_analyze(const float* x, int out_len, const float* lp, const float* hp,
               int taps, float* lo, float* hi) {
  const auto t0 = Clock::now();
  base_kernels().analyze(x, out_len, lp, hp, taps, lo, hi);
  record(kOtherKernels, t0, 1, out_len, 4.0 * out_len * taps);
}
void k_synthesize(const float* x, int pairs, const float* ca, const float* cb,
                  int taps, float* out) {
  const auto t0 = Clock::now();
  base_kernels().synthesize(x, pairs, ca, cb, taps, out);
  record(kOtherKernels, t0, 1, pairs, 4.0 * pairs * taps);
}
void k_magnitude(const float* re, const float* im, int n, float* mag) {
  const auto t0 = Clock::now();
  base_kernels().magnitude(re, im, n, mag);
  record(kOtherKernels, t0, 1, n, 4.0 * n);
}
void k_select(const float* a_re, const float* a_im, const float* b_re,
              const float* b_im, const float* mag_a, const float* mag_b, int n,
              float* out_re, float* out_im) {
  const auto t0 = Clock::now();
  base_kernels().select(a_re, a_im, b_re, b_im, mag_a, mag_b, n, out_re, out_im);
  record(kOtherKernels, t0, 1, n, 0.0);
}
void k_average(const float* a, const float* b, int n, float* out) {
  const auto t0 = Clock::now();
  base_kernels().average(a, b, n, out);
  record(kOtherKernels, t0, 1, n, 2.0 * n);
}
void k_analyze_ml(const float* x, int x_stride, int nlines, int out_len,
                  const float* lp, const float* hp, int taps, float* lo, float* hi,
                  int out_stride) {
  const auto t0 = Clock::now();
  base_kernels().analyze_ml(x, x_stride, nlines, out_len, lp, hp, taps, lo, hi,
                            out_stride);
  record(kAnalyzeMl, t0, nlines, out_len, 4.0 * nlines * out_len * taps);
}
void k_synthesize_ml(const float* x, int x_stride, int nlines, int pairs,
                     const float* ca, const float* cb, int taps, float* out,
                     int out_stride) {
  const auto t0 = Clock::now();
  base_kernels().synthesize_ml(x, x_stride, nlines, pairs, ca, cb, taps, out,
                               out_stride);
  record(kSynthesizeMl, t0, nlines, pairs, 4.0 * nlines * pairs * taps);
}
void k_magnitude_ml(const float* re, const float* im, int nlines, int len,
                    int in_stride, float* mag, int out_stride) {
  const auto t0 = Clock::now();
  base_kernels().magnitude_ml(re, im, nlines, len, in_stride, mag, out_stride);
  record(kOtherKernels, t0, nlines, len, 4.0 * nlines * len);
}
void k_select_ml(const float* a_re, const float* a_im, const float* b_re,
                 const float* b_im, const float* mag_a, const float* mag_b,
                 int nlines, int len, int in_stride, float* out_re, float* out_im,
                 int out_stride) {
  const auto t0 = Clock::now();
  base_kernels().select_ml(a_re, a_im, b_re, b_im, mag_a, mag_b, nlines, len,
                           in_stride, out_re, out_im, out_stride);
  record(kOtherKernels, t0, nlines, len, 0.0);
}
void k_analyze_mag_ml(const float* x_re, const float* x_im, int x_stride,
                      int nlines, int out_len, const float* lp_re,
                      const float* hp_re, const float* lp_im, const float* hp_im,
                      int taps, float* lo_re, float* hi_re, float* lo_im,
                      float* hi_im, float* mag_lo, float* mag_hi, int out_stride) {
  const auto t0 = Clock::now();
  base_kernels().analyze_mag_ml(x_re, x_im, x_stride, nlines, out_len, lp_re,
                                hp_re, lp_im, hp_im, taps, lo_re, hi_re, lo_im,
                                hi_im, mag_lo, mag_hi, out_stride);
  const double mag = mag_lo ? 8.0 * out_len : 0.0;
  record(kAnalyzeMagMl, t0, nlines, out_len,
         nlines * (8.0 * out_len * taps + mag));
}
void k_select_synth_ml(const float* lo_a, const float* lo_b, const float* mlo_a,
                       const float* mlo_b, const float* hi_a, const float* hi_b,
                       const float* mhi_a, const float* mhi_b, int in_stride,
                       int nlines, int pairs, const float* ca, const float* cb,
                       int taps, int synth_offset, float* out, int out_stride) {
  const auto t0 = Clock::now();
  base_kernels().select_synth_ml(lo_a, lo_b, mlo_a, mlo_b, hi_a, hi_b, mhi_a,
                                 mhi_b, in_stride, nlines, pairs, ca, cb, taps,
                                 synth_offset, out, out_stride);
  record(kSelectSynthMl, t0, nlines, pairs, 4.0 * nlines * pairs * taps);
  g_synth_shapes[{nlines, pairs, taps}] += 1;
}

const simd::KernelSet& span_kernels() {
  static const simd::KernelSet set = {
      "simd+spans",   k_analyze,       k_synthesize,  k_magnitude,
      k_select,       k_average,       k_analyze_ml,  k_synthesize_ml,
      k_magnitude_ml, k_select_ml,     k_analyze_mag_ml, k_select_synth_ml};
  return set;
}

// The fused plan never calls synthesize_ml: select_synth_ml runs the same
// interleaved synthesis pass right after its select. So synthesize_ml is
// swept standalone, on the synthesis shapes (lines, pairs, taps) and call
// mix the workload's select_synth_ml spans carried.
double sweep_synthesize_ml_gflops(double min_seconds) {
  if (g_synth_shapes.empty()) return 0.0;
  std::vector<float> x, out, ca, cb;
  double flops = 0.0, seconds = 0.0;
  while (seconds < min_seconds) {
    for (const auto& [shape, calls] : g_synth_shapes) {
      const auto [nlines, pairs, taps] = shape;
      const int x_stride = 2 * pairs + taps, out_stride = 2 * pairs;
      x.assign(static_cast<std::size_t>(nlines) * x_stride, 0.5f);
      out.assign(static_cast<std::size_t>(nlines) * out_stride, 0.0f);
      ca.assign(static_cast<std::size_t>(taps), 0.25f);
      cb.assign(static_cast<std::size_t>(taps), -0.25f);
      const auto t0 = Clock::now();
      for (long long c = 0; c < calls; ++c) {
        base_kernels().synthesize_ml(x.data(), x_stride, nlines, pairs, ca.data(),
                                     cb.data(), taps, out.data(), out_stride);
      }
      seconds += seconds_between(t0, Clock::now());
      flops += 4.0 * calls * nlines * pairs * taps;
    }
  }
  return flops / seconds * 1e-9;
}

// --- statistics and output --------------------------------------------------

double percentile(std::vector<double> v, double q) {  // nearest rank
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Bit-checks `count` pairs fused through the workload's own backends
// (TimedFusionRunner, the serial pass run_pipelined/run_fleet make) against
// the scalar reference.
void check_fused_bits(const Bench& bench, int count, Tally* tally) {
  std::vector<TracedPair> pairs = bench.traced_pairs(0);
  const std::size_t stride = std::max<std::size_t>(1, pairs.size() / count);
  for (std::size_t i = 0; i < pairs.size(); i += stride) {
    const TracedPair& tp = pairs[i];
    const auto backend = sched::make_backend(tp.backend, *tp.run);
    sched::TimedFusionRunner runner(*backend, tp.run->fuse);
    const sched::FrameRunResult r =
        runner.run_frame_pair(tp.pair->visible, tp.pair->thermal);
    tally->check(same_bits(r.fused, reference_fuse(*tp.pair)),
                 "fused bits differ from the scalar reference");
  }
}

// --- host time at reference speed -------------------------------------------

// On a shared virtual machine two things move a clip's wall time that the
// program does not control, so raw wall times of separate 30-second runs
// spread by over 30%:
//  - the hypervisor takes the vCPU away (steal time). Process CPU time
//    excludes it (paravirtual steal accounting), and with one host thread
//    a clip's CPU time is its wall time less that gap;
//  - the CPU runs in a fast or a slow state (about 1.3-1.6x apart, seconds
//    at a time, co-tenant load). So each clip's CPU time is scaled by
//    kReferenceLoopS / (the CPU time of a fixed loop measured right before
//    and right after the clip).
// The loop is perfbench's own code, so no change to the program moves it;
// kReferenceLoopS is its time in the host's fast state (4-vCPU Xeon VM,
// Release build). Raw wall times are reported beside.
constexpr double kReferenceLoopS = 0.78e-3;

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double reference_loop_s() {
  static float x[4096], y[4096];
  static const float taps[14] = {0.02f, -0.05f, 0.1f,  0.3f, 0.1f,  -0.05f, 0.02f,
                                 0.01f, -0.02f, 0.04f, 0.2f, 0.04f, -0.02f, 0.01f};
  const double t0 = cpu_now_s();
  for (int rep = 0; rep < 100; ++rep) {
    for (int i = 0; i + 14 <= 4096; ++i) {
      float acc = 0.0f;
      for (int t = 0; t < 14; ++t) acc += taps[t] * x[i + t];
      y[i] = acc;
    }
    x[rep] = 0.5f + 1e-3f * y[(rep * 97) % 4000];
  }
  return cpu_now_s() - t0;
}

// Median of three loops, so one interrupted loop does not set the scale.
double reference_s() {
  double t[3] = {reference_loop_s(), reference_loop_s(), reference_loop_s()};
  std::sort(t, t + 3);
  return t[1];
}

// --- untraced run: end-to-end metrics ---------------------------------------

int run_untraced(const Bench& bench, const Options& opt, double setup_s,
                 double setup_wall_s, const ClipOutcome& ref) {
  Tally tally;
  std::vector<double> wall_s, clip_s, reference;  // clip_s: reference speed
  double ref_before = reference_s();
  const auto t_loop = Clock::now();
  for (int c = 1; seconds_between(t_loop, Clock::now()) < opt.seconds; ++c) {
    const auto t0 = Clock::now();
    const double cpu0 = cpu_now_s();
    const ClipOutcome o = bench.run_clip(c, bench.threads());
    const double cpu_s = cpu_now_s() - cpu0;
    wall_s.push_back(seconds_between(t0, Clock::now()));
    const double ref_after = reference_s();
    reference.push_back(ref_after);
    clip_s.push_back(cpu_s * kReferenceLoopS / (0.5 * (ref_before + ref_after)));
    ref_before = ref_after;
    tally.check(same_bits(o.exact, ref.exact),
                "modeled fields differ between clips");
  }

  const double rss_mb = peak_rss_mb();

  // After timing: modeled identity at nproc host threads, and fused bits.
  host::set_default_threads(bench.nproc());
  tally.check(same_bits(bench.run_clip(0, bench.nproc()).exact, ref.exact),
              "modeled fields differ between 1 and nproc host threads");
  host::set_default_threads(bench.threads());
  check_fused_bits(bench, 2, &tally);

  const Workload& w = bench.workload();
  std::printf("end-to-end (untraced, host threads %d): %zu clips of %d pairs\n",
              bench.threads(), clip_s.size(), bench.pairs_per_clip());
  if (clip_s.size() < 100) {
    std::printf("  note: fewer than 100 clips, so fewer than ten lie beyond p90\n");
  }
  std::vector<Metric> metrics = {
      {"pairs_per_s", ratio(bench.pairs_per_clip(), median(clip_s)), "1/s"},
      {"clip_ms_p50", 1e3 * median(clip_s), "ms"},
      {"clip_ms_p90", 1e3 * percentile(clip_s, 0.9), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"modeled_fps", ref.modeled_fps, "fps"},
      {"modeled_mj_per_frame", ref.mj_per_frame, "mJ"},
  };
  print_metrics(metrics);
  // Reported, not gated: raw wall times, and exact zeros on a healthy run or
  // (p99) a modeled time that repeats exactly by design.
  std::vector<Metric> extra = {
      {"fail_frac", ratio(tally.failed, tally.attempted), "ratio"},
      {"pairs_per_s_wall", ratio(bench.pairs_per_clip(), median(wall_s)), "1/s"},
      {"clip_ms_p50_wall", 1e3 * median(wall_s), "ms"},
      {"clip_ms_p90_wall", 1e3 * percentile(wall_s, 0.9), "ms"},
      {"setup_s_wall", setup_wall_s, "s"},
      {"reference_loop_ms", 1e3 * median(reference), "ms"}};
  if (w.kind == Kind::kFleet) {
    extra.push_back({"modeled_p99_ms", ref.p99_ms, "ms"});
    extra.push_back({"modeled_drop_frac", ref.drop_frac, "ratio"});
  }
  print_metrics(extra);
  print_result(tally.failed == 0, tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

// --- traced run: per-layer metrics ------------------------------------------

// Nested public calls, outermost first: run_pipelined / run_fleet (sched,
// run) contains the serial TimedFusionRunner pass (sched, accounting), which
// contains the fuse_frames numerics (fusion), which call the KernelSet (simd).
// Each is timed in its own call on the same pairs; a layer's self time is its
// call minus the next inner call.
struct TracedClip {
  double fuse_n_s = 0.0;    // fuse_frames, SimdLineFilter at nproc threads
  double fuse_s = 0.0;      // the same at the clips' host threads (1)
  double spans_s = 0.0;     // the same with kernel spans
  double runner_s = 0.0;    // make_backend + TimedFusionRunner pass
  double run_s = 0.0;       // make_backend + run_pipelined, or run_fleet
};

struct HwCounts {
  long long frames = 0, lines = 0, driver_calls = 0, chain_heads = 0;
  long long routed_simd = 0, routed = 0;
  double macs = 0.0, est_bytes = 0.0, pixels = 0.0;
};

void count_backend(const sched::TransformBackend& backend, HwCounts* hw) {
  if (const auto* b = dynamic_cast<const sched::BatchedFpgaBackend*>(&backend)) {
    hw->lines += b->accelerator().lines();
    hw->driver_calls += b->accelerator().driver_calls();
    hw->chain_heads += b->accelerator().chain_heads();
  } else if (const auto* a = dynamic_cast<const sched::AdaptiveBackend*>(&backend)) {
    // The serial accelerator enters the driver once per line.
    hw->lines += a->accelerator().lines();
    hw->driver_calls += a->accelerator().lines();
    hw->chain_heads += a->accelerator().lines();
    hw->routed_simd += a->router().lines_on_simd();
    hw->routed += a->router().lines_on_simd() + a->router().lines_on_fpga();
  }
}

TracedClip traced_clip(const Bench& bench, int index,
                       const std::vector<TracedPair>& pairs,
                       const ClipOutcome& ref, Tally* tally, HwCounts* hw) {
  TracedClip t;
  const fusion::FuseConfig fuse{};
  const auto fuse_checked = [&](const TracedPair& tp, dwt::LineFilter& filter,
                                double* seconds, const char* what) {
    const auto s = Clock::now();
    const image::ImageF out =
        fusion::fuse_frames(tp.pair->visible, tp.pair->thermal, fuse, filter);
    *seconds += seconds_between(s, Clock::now());
    tally->check(same_bits(out, tp.reference), what);
  };

  dwt::SimdLineFilter simd_n(HostConfig{bench.nproc()});
  for (const TracedPair& tp : pairs) {
    fuse_checked(tp, simd_n, &t.fuse_n_s,
                 "fuse_frames (nproc threads) differs from the scalar reference");
  }
  dwt::KernelLineFilter spans(span_kernels());
  for (const TracedPair& tp : pairs) {
    fuse_checked(tp, spans, &t.spans_s,
                 "fuse_frames (kernel spans) differs from the scalar reference");
  }

  // The serial pass run_pipelined / run_fleet make: one backend per stream,
  // and for every non-CPU fleet stream the one-frame NEON spill probe. Each
  // pair's bare fuse_frames call runs right before its runner call, so the
  // accounting self time is a difference of neighbouring measurements.
  dwt::SimdLineFilter simd_1(HostConfig{bench.threads()});
  const bool fleet = bench.workload().kind == Kind::kFleet;
  std::size_t i = 0;
  std::vector<std::unique_ptr<sched::TransformBackend>> backends;
  while (i < pairs.size()) {
    const sched::RunConfig* run = pairs[i].run;
    auto t0 = Clock::now();
    backends.push_back(sched::make_backend(pairs[i].backend, *run));
    sched::TimedFusionRunner runner(*backends.back(), run->fuse);
    t.runner_s += seconds_between(t0, Clock::now());
    const std::size_t first = i;
    for (; i < pairs.size() && pairs[i].run == run; ++i) {
      const TracedPair& tp = pairs[i];
      fuse_checked(tp, simd_1, &t.fuse_s,
                   "fuse_frames (1 thread) differs from the scalar reference");
      t0 = Clock::now();
      const sched::FrameRunResult r =
          runner.run_frame_pair(tp.pair->visible, tp.pair->thermal);
      t.runner_s += seconds_between(t0, Clock::now());
      tally->check(same_bits(r.fused, tp.reference),
                   "backend fused output differs from the scalar reference");
    }
    if (fleet && bench.fleet().spill_wait_frac > 0.0) {
      t0 = Clock::now();
      const auto neon = sched::make_backend(sched::BackendKind::kNeon, *run);
      sched::TimedFusionRunner probe(*neon, run->fuse);
      probe.run_frame_pair(pairs[first].pair->visible, pairs[first].pair->thermal);
      t.runner_s += seconds_between(t0, Clock::now());
    }
  }
  if (hw->frames == 0) {
    for (const auto& b : backends) count_backend(*b, hw);
    for (const TracedPair& tp : pairs) {
      const int rows = tp.pair->visible.rows(), cols = tp.pair->visible.cols();
      hw->est_bytes +=
          dwt::FusionPlan(rows, cols, fuse.transform).estimate_traffic().fused_bytes;
      hw->pixels += double(rows) * cols;
    }
    hw->macs = double(simd_n.stats().total_macs());
    hw->frames = static_cast<long long>(pairs.size());
  }

  const auto t0 = Clock::now();
  const ClipOutcome o = bench.run_clip(index, bench.threads());
  t.run_s = seconds_between(t0, Clock::now());
  tally->check(same_bits(o.exact, ref.exact), "modeled fields differ between clips");
  return t;
}

int run_traced(const Bench& bench, const Options& opt, const ClipOutcome& ref) {
  Tally tally;
  const int npairs = bench.pairs_per_clip();

  // Scalar references for every pair a traced clip fuses (untimed).
  std::vector<std::vector<TracedPair>> traced(
      static_cast<std::size_t>(bench.distinct_traced_clips()));
  for (std::size_t c = 0; c < traced.size(); ++c) {
    traced[c] = bench.traced_pairs(static_cast<int>(c));
    for (TracedPair& tp : traced[c]) tp.reference = reference_fuse(*tp.pair);
  }

  // Untraced clips, the per-pair baseline the layers must add back up to,
  // each follow a traced clip over the same pairs, so both see the same
  // machine and cache conditions.
  const auto t_start = Clock::now();
  std::vector<double> untraced_s;
  std::vector<TracedClip> clips;
  HwCounts hw;
  for (int c = 0; clips.size() < 2 || seconds_between(t_start, Clock::now()) < opt.seconds;
       ++c) {
    clips.push_back(traced_clip(bench, c,
                                traced[static_cast<std::size_t>(c) % traced.size()],
                                ref, &tally, &hw));
    const auto t0 = Clock::now();
    const ClipOutcome o = bench.run_clip(c, bench.threads());
    untraced_s.push_back(seconds_between(t0, Clock::now()));
    tally.check(same_bits(o.exact, ref.exact), "modeled fields differ between clips");
  }

  const auto per_pair_us = [&](auto field) {
    std::vector<double> v;
    for (const TracedClip& t : clips) v.push_back(1e6 * field(t) / npairs);
    return median(v);
  };
  const double untraced_us = 1e6 * median(untraced_s) / npairs;
  const double fusion_nproc_us =
      per_pair_us([](const TracedClip& t) { return t.fuse_n_s; });
  const double fusion_us = per_pair_us([](const TracedClip& t) { return t.fuse_s; });
  const double spans_us = per_pair_us([](const TracedClip& t) { return t.spans_s; });
  const double account_us = per_pair_us(
      [](const TracedClip& t) { return t.runner_s - t.fuse_s; });
  const double schedule_us =
      per_pair_us([](const TracedClip& t) { return t.run_s - t.runner_s; });
  const double self_sum_us = fusion_us + account_us + schedule_us;
  const double closure = ratio(self_sum_us, untraced_us);
  const double overhead = ratio(spans_us, fusion_us);

  const double pixels_per_pair = hw.pixels / hw.frames;
  const double bytes_per_pair = hw.est_bytes / hw.frames;
  const auto gflops = [](Family f) {
    return ratio(g_kernel[f].flops, g_kernel[f].seconds) * 1e-9;
  };
  double kernel_s = 0.0;
  long long kernel_lines = 0;
  for (const KernelSpanStats& s : g_kernel) {
    kernel_s += s.seconds;
    kernel_lines += s.lines;
  }
  const double frames = double(hw.frames);
  const double synth_gflops = g_kernel[kSynthesizeMl].calls > 0
                                  ? gflops(kSynthesizeMl)
                                  : sweep_synthesize_ml_gflops(0.25);

  std::printf("traced run (host threads %d, nproc %d): %zu untraced and %zu "
              "traced clips of %d pairs\n",
              bench.threads(), bench.nproc(), untraced_s.size(), clips.size(),
              npairs);
  std::printf("kernel line-length mix (family: length x lines per pair):\n");
  for (int f = 0; f < kFamilies; ++f) {
    std::printf("  %-16s", kFamilyNames[f]);
    for (const auto& [key, lines] : g_line_mix) {
      if (key.first == f) {
        std::printf(" %dx%.0f", key.second,
                    double(lines) / (frames * double(clips.size())));
      }
    }
    std::printf("\n");
  }
  std::vector<Metric> metrics = {
      {"simd.analyze_ml_gflops", gflops(kAnalyzeMl), "GFLOP/s"},
      {"simd.synthesize_ml_gflops", synth_gflops, "GFLOP/s"},
      {"simd.analyze_mag_ml_gflops", gflops(kAnalyzeMagMl), "GFLOP/s"},
      {"simd.select_synth_ml_gflops", gflops(kSelectSynthMl), "GFLOP/s"},
      {"simd.ns_per_line", 1e9 * ratio(kernel_s, double(kernel_lines)), "ns"},
      {"fusion.pair_us", fusion_nproc_us, "us"},
      {"fusion.pair_us_1t", fusion_us, "us"},
      {"fusion.scaling_eff", ratio(fusion_us, fusion_nproc_us * bench.nproc()),
       "ratio"},
      {"fusion.ns_per_px", 1e3 * fusion_us / pixels_per_pair, "ns"},
      {"fusion.macs_per_pair", hw.macs / frames, "count"},
      {"fusion.est_bytes_per_pair", bytes_per_pair, "B"},
      {"fusion.implied_gbps", ratio(bytes_per_pair, fusion_us * 1e-6) * 1e-9,
       "GB/s"},
      {"sched.account_us_per_pair", account_us, "us"},
      {"sched.schedule_us_per_pair", schedule_us, "us"},
      {"sched.host_share", ratio(account_us + schedule_us, self_sum_us), "ratio"},
      {"sched.router_simd_frac", ratio(double(hw.routed_simd), double(hw.routed)),
       "ratio"},
      {"sched.spill_frac", ref.spill_frac, "ratio"},
      {"hw.lines_per_frame", hw.lines / frames, "count"},
      {"hw.driver_calls_per_frame", hw.driver_calls / frames, "count"},
      {"hw.chain_heads_per_frame", hw.chain_heads / frames, "count"},
      {"hw.ps_busy_frac", ref.ps_busy_frac, "ratio"},
      {"hw.pl_busy_frac", ref.pl_busy_frac, "ratio"},
      {"power.gated_mj_per_frame", ref.gated_mj_per_frame, "mJ"},
      {"trace.closure", closure, "ratio"},
      {"trace.overhead", overhead, "ratio"},
  };
  print_metrics(metrics);
  std::printf("  untraced per-pair time %.3f us; closure tolerance +/-%.2f\n",
              untraced_us, kClosureTolerance);

  // The layers must add back up, and no inner call may cost more than the
  // call that contains it.
  tally.check(std::fabs(closure - 1.0) <= kClosureTolerance,
              "layer self times do not add back up to the untraced per-pair time");
  tally.check(account_us >= -kClosureTolerance * untraced_us &&
                  schedule_us >= -kClosureTolerance * untraced_us,
              "a layer's self time is negative beyond the closure tolerance");
  print_result(tally.failed == 0, tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  const Options opt = parse_options(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (!workload) usage_error(("unknown workload '" + opt.workload + "'").c_str());

  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  host::set_default_threads(kHostThreads);

  const auto t_gen = Clock::now();
  const double cpu_gen = cpu_now_s();
  const Bench bench(*workload, opt.seed, kHostThreads, nproc);
  const double gen_s = seconds_between(t_gen, Clock::now());
  const double gen_cpu_s = cpu_now_s() - cpu_gen;

  // Set-up ends with the untimed warm-up clip, whose modeled outcome every
  // later clip must reproduce bit for bit. Its CPU time counts from exec.
  const ClipOutcome ref = bench.run_clip(0, kHostThreads);
  const double setup_wall_s = seconds_between(t_start, Clock::now()) - gen_s;
  const double setup_s =
      (cpu_now_s() - gen_cpu_s) * kReferenceLoopS / reference_s();

  std::printf("workload %s  seed %llu  nproc %d  isa %s  kernels %s  layout %s\n",
              workload->name, static_cast<unsigned long long>(opt.seed), nproc,
              simd::simd_isa_name(), simd::active_kernels().name,
              dwt::host_layout_name(dwt::host_layout()));
  if (opt.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }
  return opt.trace ? run_traced(bench, opt, ref)
                   : run_untraced(bench, opt, setup_s, setup_wall_s, ref);
}
