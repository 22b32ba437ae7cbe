// Shared helpers for the benchmark harness.
//
// Each bench binary regenerates one table or figure of the paper: it runs
// the real pipeline on the modeled ZC702 across the paper's frame-size sweep
// and prints the same rows/series the paper reports (modeled seconds/mJ, not
// host wall-clock — see DESIGN.md §2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/sched/adaptive.h"
#include "src/sched/calibrate.h"
#include "src/sched/pipeline.h"
#include "src/simd/dispatch.h"

namespace vf::bench {

inline constexpr int kPaperFrameCount = 10;  // "10 input frames were decomposed,
                                             // fused and reconstructed continuously"

// CLI options shared by every bench binary so `bench_realtime` and
// `bench_pipeline` (and any future bench) parse identically:
//
//   --frames N     frames per probe run (default: the paper's 10)
//   --pipeline     enable the frame-level event-queue pipeline where the
//                  bench supports it (ignored otherwise)
//   --threads N    host pool width for the numeric work (default: all
//                  hardware threads; modeled time is bit-identical at any N)
//   --kernels K    kernel flavour: scalar | simd (default) | autovec
//   --json PATH    also write the bench's results as JSON
//   --cross-frame  cross-frame line streaming where the bench supports it
//                  (run_pipelined/run_fleet batched-FPGA paths; ignored
//                  otherwise — modeled outputs stay legacy without it)
//   --sg-chain N   scatter-gather descriptor chain length (default 1 = flat
//                  per-batch driver entries, the legacy schedule)
struct BenchOptions {
  int frames = kPaperFrameCount;
  bool pipeline = false;
  int threads = 0;  // 0 = hardware_concurrency
  std::string kernels;
  std::string json_path;
  bool cross_frame = false;
  int sg_chain_len = 1;
};

inline BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      options.frames = std::atoi(argv[++i]);
      if (options.frames < 1) {
        std::fprintf(stderr, "--frames wants a positive count, got '%s'\n", argv[i]);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      options.pipeline = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.threads = std::atoi(argv[++i]);
      if (options.threads < 1) {
        std::fprintf(stderr, "--threads wants a positive count, got '%s'\n", argv[i]);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--kernels") == 0 && i + 1 < argc) {
      options.kernels = argv[++i];
      if (!simd::set_active_kernels(options.kernels.c_str())) {
        std::fprintf(stderr,
                     "unknown kernel flavour '%s' (supported: scalar, simd, "
                     "autovec)\n",
                     options.kernels.c_str());
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      options.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cross-frame") == 0) {
      options.cross_frame = true;
    } else if (std::strcmp(argv[i], "--sg-chain") == 0 && i + 1 < argc) {
      options.sg_chain_len = std::atoi(argv[++i]);
      if (options.sg_chain_len < 1) {
        std::fprintf(stderr, "--sg-chain wants a positive length, got '%s'\n",
                     argv[i]);
        std::exit(2);
      }
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (supported: --frames N, --pipeline, "
                   "--threads N, --kernels scalar|simd|autovec, --json PATH, "
                   "--cross-frame, --sg-chain N)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  // Benches default to the full machine; the library default stays serial so
  // embedders and unit tests opt in explicitly.
  host::set_default_threads(options.threads > 0 ? options.threads
                                                : host::hardware_threads());
  return options;
}

// Shared --json envelope: schema header + the run's harness configuration.
inline json::Value json_run_header(const char* bench, const BenchOptions& options) {
  json::Value run = json::Value::object();
  run.set("schema", "vf-bench-v1");
  run.set("bench", bench);
  json::Value host = json::Value::object();
  host.set("threads", host::default_threads());
  host.set("kernels", simd::active_kernels().name);
  host.set("simd_isa", simd::simd_isa_name());
  run.set("host", std::move(host));
  run.set("frames", options.frames);
  return run;
}

// For benches with no frame-stream probe (single-frame quality ablations,
// the resource table): makes --frames loudly inert instead of silently
// ignored.
inline void note_frames_unused(const BenchOptions& options, const char* reason) {
  if (options.frames != kPaperFrameCount) {
    std::fprintf(stderr, "note: --frames has no effect here (%s)\n", reason);
  }
}

// Shared --json writer: no-op without --json. Returns the bench's exit-code
// contribution (0 on success, 1 on a write failure) so main can `return` it.
inline int write_json_report(const BenchOptions& options, const json::Value& run) {
  if (options.json_path.empty()) return 0;
  if (!json::write_file(options.json_path, run)) {
    std::fprintf(stderr, "failed to write %s\n", options.json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", options.json_path.c_str());
  return 0;
}

// The bench spelling of the backend kind is the scheduler's own enum since
// the PR 7 API redesign; every bench builds backends via make_backend.
using EngineChoice = sched::BackendKind;

inline const char* engine_label(EngineChoice e) { return sched::backend_name(e); }

// The harness flags (--frames/--threads/--kernels) folded into the one
// RunConfig every backend is built from, so each sweep explicitly carries
// the host pool it numerics on.
inline sched::RunConfig bench_run_config(const BenchOptions& options) {
  sched::RunConfig config;
  config.frames = options.frames;
  config.host.threads = host::default_threads();
  config.kernels = options.kernels;
  config.cross_frame = options.cross_frame;
  config.batching.sg_chain_len = options.sg_chain_len;
  return config;
}

// Runs `fn` with a freshly factory-built backend of the requested kind.
inline void with_backend(EngineChoice choice, const sched::RunConfig& config,
                         const std::function<void(sched::TransformBackend&)>& fn) {
  const std::unique_ptr<sched::TransformBackend> backend =
      sched::make_backend(choice, config);
  fn(*backend);
}

// Probe of one engine at one size (fresh backend per call); frame count and
// fusion settings come from the config.
inline sched::ProbeResult run_probe(EngineChoice choice, const sched::FrameSize& size,
                                    const sched::RunConfig& config) {
  const std::unique_ptr<sched::TransformBackend> backend =
      sched::make_backend(choice, config);
  return sched::probe_backend(*backend, size, config.frames, config.fuse);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n\n");
}

}  // namespace vf::bench
