#include "src/sched/adaptive.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/rng.h"
#include "src/fusion/fused_plan.h"
#include "src/hw/clock.h"
#include "src/simd/kernels.h"

namespace vf::sched {

// --- frame sweep ------------------------------------------------------------

std::string FrameSize::label() const {
  return std::to_string(width) + "x" + std::to_string(height);
}

std::vector<FrameSize> paper_frame_sizes() {
  return {{32, 24}, {35, 35}, {40, 40}, {64, 48}, {88, 72}};
}

std::vector<FramePair> make_sweep_frames(const FrameSize& size, int count) {
  std::vector<FramePair> pairs;
  pairs.reserve(count);
  const int rows = size.height;
  const int cols = size.width;
  for (int f = 0; f < count; ++f) {
    Rng rng(0x5eedull * (f + 1) + 13u * rows + 7u * cols);
    FramePair pair;
    pair.visible = image::ImageF(rows, cols);
    pair.thermal = image::ImageF(rows, cols);
    // Scene geometry: a building edge and a window block the visible camera
    // sees, and a warm target the thermal camera sees drifting across.
    const float edge_col = 0.35f * cols;
    const float win_r0 = 0.2f * rows, win_r1 = 0.45f * rows;
    const float win_c0 = 0.55f * cols, win_c1 = 0.8f * cols;
    const float tr = rows * (0.3f + 0.04f * f);
    const float tc = cols * (0.2f + 0.06f * f);
    const float sigma = 0.08f * (rows + cols);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        // Visible: illumination ramp + texture + structures + sensor noise.
        float vis = 0.35f + 0.25f * static_cast<float>(r) / rows;
        vis += 0.08f * std::sin(0.55f * c) * std::cos(0.35f * r);
        if (c < edge_col) vis += 0.18f;
        if (r > win_r0 && r < win_r1 && c > win_c0 && c < win_c1) vis -= 0.22f;
        vis += rng.next_float(-0.02f, 0.02f);
        // Thermal: cool scene, faint structure bleed-through, hot target.
        float th = 0.12f + 0.05f * static_cast<float>(c) / cols;
        if (c < edge_col) th += 0.04f;
        const float dr = r - tr, dc = c - tc;
        th += 0.75f * std::exp(-(dr * dr + dc * dc) / (2.0f * sigma * sigma));
        th += rng.next_float(-0.015f, 0.015f);
        pair.visible(r, c) = vis < 0.0f ? 0.0f : (vis > 1.0f ? 1.0f : vis);
        pair.thermal(r, c) = th < 0.0f ? 0.0f : (th > 1.0f ? 1.0f : th);
      }
    }
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

// --- cost models ------------------------------------------------------------

CpuCostModel arm_cost_model() { return CpuCostModel{}; }

CpuCostModel neon_cost_model() {
  CpuCostModel model;
  // The paper's NEON port gains -10% on the forward transform and -16% on
  // the inverse (whose interleaved synthesis loop vectorizes better).
  model.analysis_factor = hw::cost::kNeonAnalysisFactor;
  model.synthesis_factor = hw::cost::kNeonSynthesisFactor;
  return model;
}

namespace {
void stage_add(StageTimes* times, Phase p, SimDuration d) {
  switch (p) {
    case Phase::kPrep:
      times->prep += d;
      break;
    case Phase::kForward:
      times->forward += d;
      break;
    case Phase::kFusion:
      times->fusion += d;
      break;
    case Phase::kInverse:
      times->inverse += d;
      break;
  }
}
}  // namespace

void TransformBackend::charge(SimDuration d) { ledger_add(phase_, d); }

void TransformBackend::note_pl(SimDuration d) { ledger_add_pl(phase_, d); }

void TransformBackend::ledger_add(Phase p, SimDuration d) {
  stage_add(&times_, p, d);
}

void TransformBackend::ledger_add_pl(Phase p, SimDuration d) {
  stage_add(&pl_times_, p, d);
}

SimDuration TransformBackend::prep_time(int pixels) const {
  return hw::ps_clock().cycles(arm_cost_model().prep_cycles_per_pixel * pixels);
}

// --- CPU backends -----------------------------------------------------------

namespace detail {

ThreadPool* CpuTimedFilter::pool() const { return owner_->host_pool(); }

void CpuTimedFilter::account_analyze(int out_len, int taps) {
  owner_->charge(
      hw::ps_clock().cycles(model_.analysis_line_cycles(2 * out_len, taps)));
}

void CpuTimedFilter::account_synthesize(int pairs, int taps) {
  owner_->charge(
      hw::ps_clock().cycles(model_.synthesis_line_cycles(2 * pairs, taps)));
}

void CpuTimedFilter::account_magnitude(int n) {
  // The fusion rule always runs on the PS at scalar rates — the paper only
  // accelerates the transforms.
  owner_->charge(hw::ps_clock().cycles(model_.magnitude_cycles_per_sample * n));
}

void CpuTimedFilter::account_select(int n) {
  owner_->charge(hw::ps_clock().cycles(model_.select_cycles_per_sample * n));
}

}  // namespace detail

// --- FPGA backend -----------------------------------------------------------

namespace {

using hw::cost::engine_compute_cycles;

void check_engine_fit(const driver::WaveletAccelerator& accel, int taps,
                      bool synthesis) {
  detail::check_engine_fit(accel.engine(), taps, synthesis);
}

}  // namespace

namespace detail {

// A bank only runs on the engine if its coefficients fit the shift-register
// chain: `slots` for analysis, `slots + 2` for the interleaved synthesis
// window (the polyphase pair skews the chain by two stages). Modeling a line
// the hardware cannot hold would produce plausible-looking nonsense, so
// refuse loudly (e.g. the paper's 12-slot engine cannot run the 14-tap
// q-shift banks — see bench_ablation_taps).
void check_engine_fit(const hw::WaveletEngineConfig& engine, int taps,
                      bool synthesis) {
  const int limit = engine.slots + (synthesis ? 2 : 0);
  if (taps > limit) {
    std::fprintf(stderr,
                 "fatal: %d-tap %s filter does not fit the modeled wavelet "
                 "engine (%d coefficient slots)\n",
                 taps, synthesis ? "synthesis" : "analysis", engine.slots);
    std::abort();
  }
}

}  // namespace detail

class FpgaBackend::Filter : public dwt::LineFilter {
 public:
  Filter(FpgaBackend* owner, driver::WaveletAccelerator* accel)
      : owner_(owner), accel_(accel), cpu_(arm_cost_model()) {}

  ThreadPool* pool() const override { return owner_->host_pool(); }

  // The engine-fit check lives in accounting: it depends only on the request
  // shape, and accounting sees every request exactly once, in order — so the
  // refusal still fires (after the numeric fan-out) for unfittable banks.
  void account_analyze(int out_len, int taps) override {
    check_engine_fit(*accel_, taps, /*synthesis=*/false);
    owner_->charge(accel_->line_time(
        2 * out_len + taps, 2 * out_len,
        engine_compute_cycles(out_len, accel_->engine().slots)));
    owner_->note_pl(accel_->last_line_pl_time());
  }

  void account_synthesize(int pairs, int taps) override {
    check_engine_fit(*accel_, taps, /*synthesis=*/true);
    owner_->charge(accel_->line_time(
        2 * pairs + taps, 2 * pairs,
        engine_compute_cycles(pairs, accel_->engine().slots)));
    owner_->note_pl(accel_->last_line_pl_time());
  }

  void account_magnitude(int n) override {
    owner_->charge(hw::ps_clock().cycles(cpu_.magnitude_cycles_per_sample * n));
  }

  void account_select(int n) override {
    owner_->charge(hw::ps_clock().cycles(cpu_.select_cycles_per_sample * n));
  }

 private:
  FpgaBackend* owner_;
  driver::WaveletAccelerator* accel_;
  CpuCostModel cpu_;
};

FpgaBackend::FpgaBackend(const RunConfig& config)
    : TransformBackend(config.host),
      accel_(config.engine, config.driver_costs),
      filter_(std::make_unique<Filter>(this, &accel_)) {}

FpgaBackend::~FpgaBackend() = default;

dwt::LineFilter& FpgaBackend::line_filter() { return *filter_; }

// --- adaptive backend -------------------------------------------------------

// The router's per-line decision affects only modeled time (the NEON and FPGA
// paths execute bit-identical numerics), so routing — including the router's
// own line counters — lives entirely in accounting, where it runs serially in
// canonical line order at any thread count.
class AdaptiveBackend::Filter : public dwt::LineFilter {
 public:
  Filter(AdaptiveBackend* owner, driver::WaveletAccelerator* accel,
         LineRouter* router)
      : owner_(owner), accel_(accel), router_(router), neon_(neon_cost_model()) {}

  ThreadPool* pool() const override { return owner_->host_pool(); }

  void account_analyze(int out_len, int taps) override {
    if (router_->use_fpga(2 * out_len + taps)) {
      check_engine_fit(*accel_, taps, /*synthesis=*/false);
      owner_->charge(accel_->line_time(
          2 * out_len + taps, 2 * out_len,
          engine_compute_cycles(out_len, accel_->engine().slots)));
      owner_->note_pl(accel_->last_line_pl_time());
    } else {
      owner_->charge(
          hw::ps_clock().cycles(neon_.analysis_line_cycles(2 * out_len, taps)));
    }
  }

  void account_synthesize(int pairs, int taps) override {
    if (router_->use_fpga(2 * pairs + taps)) {
      check_engine_fit(*accel_, taps, /*synthesis=*/true);
      owner_->charge(accel_->line_time(
          2 * pairs + taps, 2 * pairs,
          engine_compute_cycles(pairs, accel_->engine().slots)));
      owner_->note_pl(accel_->last_line_pl_time());
    } else {
      owner_->charge(
          hw::ps_clock().cycles(neon_.synthesis_line_cycles(2 * pairs, taps)));
    }
  }

  void account_magnitude(int n) override {
    owner_->charge(hw::ps_clock().cycles(neon_.magnitude_cycles_per_sample * n));
  }

  void account_select(int n) override {
    owner_->charge(hw::ps_clock().cycles(neon_.select_cycles_per_sample * n));
  }

 private:
  AdaptiveBackend* owner_;
  driver::WaveletAccelerator* accel_;
  LineRouter* router_;
  CpuCostModel neon_;
};

AdaptiveBackend::AdaptiveBackend(const RunConfig& config)
    : TransformBackend(config.host),
      accel_(config.engine, config.driver_costs),
      router_(config.adaptive_threshold_samples),
      filter_(std::make_unique<Filter>(this, &accel_, &router_)) {}

AdaptiveBackend::~AdaptiveBackend() = default;

dwt::LineFilter& AdaptiveBackend::line_filter() { return *filter_; }

// --- probing ----------------------------------------------------------------

FrameRunResult TimedFusionRunner::run_frame_pair(const image::ImageF& visible,
                                                 const image::ImageF& thermal) {
  backend_.begin_frame();
  backend_.set_phase(Phase::kPrep);
  backend_.charge(backend_.prep_time(
      static_cast<int>(visible.size() + thermal.size())));

  FrameRunResult result;
  // Band-streaming plan: numerics run during kPrep (they make no backend
  // calls), then the accounting replay fires the phase transitions at their
  // points in the modeled call sequence.
  const dwt::FusionPlan plan(visible.rows(), visible.cols(), config_.transform);
  dwt::FusionPlan::StageHooks hooks;
  hooks.before_forward = [this] { backend_.set_phase(Phase::kForward); };
  hooks.before_fusion = [this] { backend_.set_phase(Phase::kFusion); };
  hooks.before_inverse = [this] { backend_.set_phase(Phase::kInverse); };
  result.fused = plan.run(visible, thermal, backend_.line_filter(), hooks);
  backend_.finish_frame();
  result.times = backend_.frame_times();
  result.pl_times = backend_.frame_pl_times();
  return result;
}

ProbeResult probe_backend(TransformBackend& backend, const FrameSize& size,
                          int frames, const fusion::FuseConfig& config) {
  TimedFusionRunner runner(backend, config);
  const std::vector<FramePair> pairs = make_sweep_frames(size, frames);
  ProbeResult probe;
  probe.frames = frames;
  for (const FramePair& pair : pairs) {
    const FrameRunResult r = runner.run_frame_pair(pair.visible, pair.thermal);
    probe.prep += r.times.prep;
    probe.forward += r.times.forward;
    probe.fusion += r.times.fusion;
    probe.inverse += r.times.inverse;
  }
  probe.total = probe.prep + probe.forward + probe.fusion + probe.inverse;
  const power::PowerModel pm;
  probe.energy_mj = pm.energy_mj(backend.compute_mode(), probe.total);
  return probe;
}

}  // namespace vf::sched
