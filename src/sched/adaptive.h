// Engine scheduling on the modeled ZC702: the ARM / NEON / FPGA transform
// backends, per-phase time accounting, and the adaptive per-line router the
// paper's future-work section asks for ("an adaptive system that
// intelligently selects between the NEON engine and the FPGA").
//
// A backend executes the *same* numerics as every other backend (fused
// output is bit-identical across engines); what differs is the modeled time
// charged per line request. Cost-model constants are calibrated against the
// paper's measured curves — see DESIGN.md §2 and tests/test_sched.cpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/fusion/dwt_fusion.h"
#include "src/fusion/fuse.h"
#include "src/hw/driver.h"
#include "src/hw/resources.h"
#include "src/image/metrics.h"
#include "src/power/recorder.h"
#include "src/sched/run_config.h"

namespace vf::sched {

// --- frame sweep ------------------------------------------------------------
// (FrameSize / paper_frame_sizes live in run_config.h since the PR 7 API
// redesign; this header re-exports them via the include above.)

struct FramePair {
  image::ImageF visible;
  image::ImageF thermal;
};

// Deterministic synthetic surveillance scene: a textured visible frame and a
// thermal frame whose hot target drifts with the frame index.
std::vector<FramePair> make_sweep_frames(const FrameSize& size, int count);

// --- time accounting --------------------------------------------------------

enum class Phase { kPrep, kForward, kFusion, kInverse };

struct StageTimes {
  SimDuration prep, forward, fusion, inverse;
  SimDuration total() const { return prep + forward + fusion + inverse; }
};

// CPU-side cost model (PS cycles). The named constants (hw/cost_constants.h)
// reproduce the paper's absolute times — which imply roughly 70 cycles per
// float MAC on the A9 — and its NEON deltas (-10% forward, -16% inverse).
struct CpuCostModel {
  double line_overhead_cycles = hw::cost::kCpuLineOverheadCycles;
  double per_sample_base_cycles = hw::cost::kCpuPerSampleBaseCycles;
  double per_sample_tap_cycles = hw::cost::kCpuPerSampleTapCycles;
  double magnitude_cycles_per_sample = hw::cost::kCpuMagnitudeCyclesPerSample;
  double select_cycles_per_sample = hw::cost::kCpuSelectCyclesPerSample;
  double prep_cycles_per_pixel = hw::cost::kCpuPrepCyclesPerPixel;
  double analysis_factor = 1.0;   // NEON: kNeonAnalysisFactor
  double synthesis_factor = 1.0;  // NEON: kNeonSynthesisFactor

  double analysis_line_cycles(int samples, int taps) const {
    return line_overhead_cycles +
           analysis_factor * samples * (per_sample_base_cycles + per_sample_tap_cycles * taps);
  }
  double synthesis_line_cycles(int samples, int taps) const {
    return line_overhead_cycles +
           synthesis_factor * samples * (per_sample_base_cycles + per_sample_tap_cycles * taps);
  }
};

CpuCostModel arm_cost_model();
CpuCostModel neon_cost_model();

// --- backends ---------------------------------------------------------------

class TransformBackend {
 public:
  virtual ~TransformBackend() = default;

  virtual const char* name() const = 0;
  virtual power::ComputeMode compute_mode() const = 0;
  virtual dwt::LineFilter& line_filter() = 0;

  // Host pool for the numeric half of transform execution. Affects only how
  // fast the host computes; every modeled time above is charged through the
  // serial account_* path and is bit-identical at any pool width.
  ThreadPool* host_pool() const { return host_pool_; }

  void begin_frame() {
    times_ = {};
    pl_times_ = {};
    on_begin_frame();
  }
  void set_phase(Phase p) {
    if (p != phase_) on_phase_exit(phase_);
    phase_ = p;
  }
  Phase phase() const { return phase_; }
  const StageTimes& frame_times() const { return times_; }

  // Per-phase PL-resident portion of frame_times(): DMA transfers, engine
  // busy time, PS-waits-for-PL stalls. A frame-level pipeline may overlap
  // this with another frame's PS work; frame_times() minus this is the
  // work the PS core itself must execute.
  const StageTimes& frame_pl_times() const { return pl_times_; }

  // Adds modeled time to the current phase's ledger. Virtual so event-queue
  // backends can route generic PS charges onto a timeline instead.
  virtual void charge(SimDuration d);

  // Tags the PL-resident sub-portion of time already charged (never adds
  // to frame_times(), only to the split).
  void note_pl(SimDuration d);

  // Called by the runner once the frame's last phase is complete; backends
  // with in-flight work (batched submission) drain and reconcile here.
  virtual void finish_frame() {}

  // Frame prep/conversion runs on the ARM regardless of engine.
  SimDuration prep_time(int pixels) const;

 protected:
  explicit TransformBackend(const HostConfig& host = {})
      : host_pool_(host::pool(host)) {}
  void ledger_add(Phase p, SimDuration d);
  void ledger_add_pl(Phase p, SimDuration d);
  virtual void on_begin_frame() {}
  virtual void on_phase_exit(Phase old_phase) { (void)old_phase; }

 private:
  StageTimes times_;
  StageTimes pl_times_;
  Phase phase_ = Phase::kPrep;
  ThreadPool* host_pool_ = nullptr;
};

namespace detail {

// Aborts if a filter bank cannot fit the modeled engine's coefficient
// shift-register chain (`slots` for analysis, `slots + 2` for synthesis).
void check_engine_fit(const hw::WaveletEngineConfig& engine, int taps,
                      bool synthesis);

// Charges CPU-model time per line; numerics come from the dispatch set
// (LineFilter::kernels() default), which is bit-identical across flavours —
// the *model* constants, not the host instruction set, decide what the
// backend represents (ARM vs NEON).
class CpuTimedFilter : public dwt::LineFilter {
 public:
  CpuTimedFilter(TransformBackend* owner, CpuCostModel model)
      : owner_(owner), model_(model) {}

  ThreadPool* pool() const override;
  void account_analyze(int out_len, int taps) override;
  void account_synthesize(int pairs, int taps) override;
  void account_magnitude(int n) override;
  void account_select(int n) override;

 private:
  TransformBackend* owner_;
  CpuCostModel model_;
};
}  // namespace detail

class ArmBackend : public TransformBackend {
 public:
  ArmBackend() : ArmBackend(RunConfig{}) {}
  explicit ArmBackend(const RunConfig& config)
      : TransformBackend(config.host), filter_(this, arm_cost_model()) {}
  const char* name() const override { return "ARM"; }
  power::ComputeMode compute_mode() const override {
    return power::ComputeMode::kArmOnly;
  }
  dwt::LineFilter& line_filter() override { return filter_; }

 private:
  detail::CpuTimedFilter filter_;
};

class NeonBackend : public TransformBackend {
 public:
  NeonBackend() : NeonBackend(RunConfig{}) {}
  explicit NeonBackend(const RunConfig& config)
      : TransformBackend(config.host), filter_(this, neon_cost_model()) {}
  const char* name() const override { return "NEON"; }
  power::ComputeMode compute_mode() const override {
    return power::ComputeMode::kArmNeon;
  }
  dwt::LineFilter& line_filter() override { return filter_; }

 private:
  detail::CpuTimedFilter filter_;
};

class FpgaBackend : public TransformBackend {
 public:
  FpgaBackend() : FpgaBackend(RunConfig{}) {}
  explicit FpgaBackend(const RunConfig& config);
  ~FpgaBackend() override;
  const char* name() const override { return "FPGA"; }
  power::ComputeMode compute_mode() const override {
    return power::ComputeMode::kArmFpga;
  }
  dwt::LineFilter& line_filter() override;

  const driver::WaveletAccelerator& accelerator() const { return accel_; }

 private:
  class Filter;
  driver::WaveletAccelerator accel_;
  std::unique_ptr<Filter> filter_;
};

// Per-line NEON/FPGA routing decision + statistics.
class LineRouter {
 public:
  explicit LineRouter(int threshold_samples) : threshold_(threshold_samples) {}

  // `line_samples` is the full line request size (payload + filter window),
  // i.e. the number of words the driver would ship to the engine.
  bool use_fpga(int line_samples) {
    const bool fpga = line_samples >= threshold_;
    (fpga ? fpga_lines_ : simd_lines_) += 1;
    return fpga;
  }

  int threshold_samples() const { return threshold_; }
  long long lines_on_fpga() const { return fpga_lines_; }
  long long lines_on_simd() const { return simd_lines_; }

 private:
  int threshold_;
  long long fpga_lines_ = 0;
  long long simd_lines_ = 0;
};

class AdaptiveBackend : public TransformBackend {
 public:
  AdaptiveBackend() : AdaptiveBackend(RunConfig{}) {}
  explicit AdaptiveBackend(const RunConfig& config);
  ~AdaptiveBackend() override;

  const char* name() const override { return "Adaptive"; }
  power::ComputeMode compute_mode() const override {
    return power::ComputeMode::kArmFpga;  // bitstream stays loaded
  }
  dwt::LineFilter& line_filter() override;

  const LineRouter& router() const { return router_; }
  const driver::WaveletAccelerator& accelerator() const { return accel_; }

 private:
  class Filter;
  driver::WaveletAccelerator accel_;
  LineRouter router_;
  std::unique_ptr<Filter> filter_;
};

// --- probing / timed runs ---------------------------------------------------

struct FrameRunResult {
  StageTimes times;
  StageTimes pl_times;  // PL-resident portion of `times` (see frame_pl_times)
  image::ImageF fused;
};

// Runs the full fusion pipeline on one backend, clocking each phase. Frame
// pairs always run the band-streaming dwt::FusionPlan, so a transform with
// fewer than one level aborts with a message in every build type.
class TimedFusionRunner {
 public:
  explicit TimedFusionRunner(TransformBackend& backend,
                             fusion::FuseConfig config = {})
      : backend_(backend), config_(config) {}

  FrameRunResult run_frame_pair(const image::ImageF& visible,
                                const image::ImageF& thermal);

 private:
  TransformBackend& backend_;
  fusion::FuseConfig config_;
};

struct ProbeResult {
  SimDuration prep, forward, fusion, inverse, total;
  double energy_mj = 0.0;
  int frames = 0;
};

// Fuses `frames` consecutive frame pairs at `size` on `backend` and returns
// accumulated modeled times and energy.
ProbeResult probe_backend(TransformBackend& backend, const FrameSize& size,
                          int frames, const fusion::FuseConfig& config = {});

}  // namespace vf::sched
