// make_backend(): the one construction path for transform backends (PR 7
// API redesign). Everything — benches, tests, calibrate, the fleet
// scheduler — builds backends through here.
#include <cstdio>
#include <cstdlib>

#include "src/sched/pipeline.h"
#include "src/sched/run_config.h"
#include "src/simd/dispatch.h"

namespace vf::sched {

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kArm:
      return "ARM";
    case BackendKind::kNeon:
      return "NEON";
    case BackendKind::kFpga:
      return "FPGA";
    case BackendKind::kFpgaBatched:
      return "FPGA+batch";
    case BackendKind::kAdaptive:
      return "Adaptive";
  }
  return "?";
}

std::unique_ptr<TransformBackend> make_backend(BackendKind kind,
                                               const RunConfig& config) {
  if (!config.kernels.empty() &&
      !simd::set_active_kernels(config.kernels.c_str())) {
    // A silent fallback would misreport which numerics produced the run.
    std::fprintf(stderr, "fatal: unknown kernel flavour '%s' in RunConfig\n",
                 config.kernels.c_str());
    std::abort();
  }
  switch (kind) {
    case BackendKind::kArm:
      return std::make_unique<ArmBackend>(config);
    case BackendKind::kNeon:
      return std::make_unique<NeonBackend>(config);
    case BackendKind::kFpga:
      return std::make_unique<FpgaBackend>(config);
    case BackendKind::kFpgaBatched:
      return std::make_unique<BatchedFpgaBackend>(config);
    case BackendKind::kAdaptive:
      return std::make_unique<AdaptiveBackend>(config);
  }
  return nullptr;
}

}  // namespace vf::sched
