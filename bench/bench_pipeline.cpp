// Event-queue pipeline bench: batched double buffering + frame pipelining.
//
// The paper's Fig. 5 overlaps buffer-A processing with buffer-B filling for
// one line; the seed model charged time additively per line, so the
// ~12k-cycle driver entry was paid per line and frame-level PS/PL overlap
// could not be expressed. This bench sweeps frame size x backend x
// frame-depth on the Timeline-based schedule and reports:
//
//   1. the FPGA *time break point* with transfer-granularity double
//      buffering (batched line submission into the 2048-word buffers) —
//      the serial model's break sits between 35x35 and 40x40, the batched
//      schedule moves it left of 35x35;
//   2. sustained fps and energy/frame with the 4-stage frame pipeline
//      (prep | forward | fusion | inverse) against the serial runner;
//   3. how the speedup builds with frame depth (pipeline fill amortization);
//   4. host wall-clock at --threads N against the 1-thread run of the same
//      workload — the modeled numbers above are bit-identical either way,
//      so this is the one table where the host machine (not the modeled
//      ZC702) is the subject.
//
// Flags (shared with every bench): --frames N, --pipeline, --threads N,
// --kernels K, --json PATH. The smoke run under ctest uses the defaults;
// --frames raises the sweep depth.
#include <chrono>

#include "bench/bench_util.h"
#include "src/fusion/fused_plan.h"

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vf;
  using namespace vf::bench;

  const BenchOptions options = parse_bench_options(argc, argv);
  json::Value jrun = json_run_header("bench_pipeline", options);

  print_header("Pipelined schedule — batched double buffering + frame overlap",
               "Fig. 5 schedule at transfer granularity; ROADMAP items 1-2");

  // --- 1: time break point, serial ledger vs batched event queue ------------
  std::printf("[1] FPGA time break point (%d frames, total seconds)\n\n",
              options.frames);
  TextTable breaks({"frame size", "NEON (s)", "FPGA serial (s)", "FPGA+batch (s)",
                    "batch vs serial", "best engine"});
  std::string first_fpga_win = "none";
  json::Value jbreaks = json::Value::array();
  const sched::RunConfig config = bench_run_config(options);
  for (const sched::FrameSize& size : sched::paper_frame_sizes()) {
    const auto neon = run_probe(EngineChoice::kNeon, size, config);
    const auto serial = run_probe(EngineChoice::kFpga, size, config);
    const auto batched = run_probe(EngineChoice::kFpgaBatched, size, config);
    const bool fpga_wins = batched.total < neon.total;
    if (fpga_wins && first_fpga_win == "none") first_fpga_win = size.label();
    breaks.add_row({size.label(), TextTable::num(neon.total.sec(), 3),
                    TextTable::num(serial.total.sec(), 3),
                    TextTable::num(batched.total.sec(), 3),
                    TextTable::num(100.0 * (1.0 - batched.total / serial.total), 1) + "%",
                    fpga_wins ? "FPGA+batch" : "NEON"});
    jbreaks.push(json::Value::object()
                     .set("size", size.label())
                     .set("neon_s", neon.total.sec())
                     .set("fpga_serial_s", serial.total.sec())
                     .set("fpga_batched_s", batched.total.sec())
                     .set("best", fpga_wins ? "FPGA+batch" : "NEON"));
  }
  jrun.set("break_point", std::move(jbreaks));
  std::printf("%s\n", breaks.to_string().c_str());
  std::printf("batching lines into the 2048-word kernel buffers amortizes the\n"
              "~12k-cycle driver entry; the FPGA time break point moves from\n"
              "between 35x35 and 40x40 (serial ledger) to %s.\n\n",
              first_fpga_win.c_str());

  // --- 2: frame pipeline, sustained fps and energy/frame --------------------
  std::printf("[2] 4-stage frame pipeline at depth %d (sustained fps)\n\n",
              options.frames);
  TextTable fps({"frame size", "engine", "serial fps", "pipelined fps", "speedup",
                 "mJ/frame serial", "mJ/frame pipelined"});
  const EngineChoice engines[] = {EngineChoice::kNeon, EngineChoice::kFpga,
                                  EngineChoice::kFpgaBatched,
                                  EngineChoice::kAdaptive};
  double serial_fpga_fps_full = 0.0, piped_batch_fps_full = 0.0;
  json::Value jfps = json::Value::array();
  for (const sched::FrameSize& size : sched::paper_frame_sizes()) {
    for (EngineChoice choice : engines) {
      // One overlapped run per cell: run_pipelined also reports the additive
      // serial total, so the serial row needs no second fusion pass.
      sched::PipelineRunResult piped;
      double serial_mj_frame = 0.0;
      with_backend(choice, config, [&](sched::TransformBackend& b) {
        piped = sched::probe_pipelined(b, size, options.frames);
        serial_mj_frame = power::PowerModel().energy_mj(b.compute_mode(),
                                                        piped.serial_total) /
                          options.frames;
      });
      const double serial_fps = options.frames / piped.serial_total.sec();
      if (size.width == 88 && size.height == 72) {
        if (choice == EngineChoice::kFpga) serial_fpga_fps_full = serial_fps;
        if (choice == EngineChoice::kFpgaBatched) {
          piped_batch_fps_full = piped.sustained_fps;
        }
      }
      fps.add_row({size.label(), engine_label(choice),
                   TextTable::num(serial_fps, 1),
                   TextTable::num(piped.sustained_fps, 1),
                   TextTable::num(piped.speedup_vs_serial(), 2) + "x",
                   TextTable::num(serial_mj_frame, 2),
                   TextTable::num(piped.energy_per_frame_mj(), 2)});
      jfps.push(json::Value::object()
                    .set("size", size.label())
                    .set("engine", engine_label(choice))
                    .set("serial_fps", serial_fps)
                    .set("pipelined_fps", piped.sustained_fps)
                    .set("serial_mj_per_frame", serial_mj_frame)
                    .set("pipelined_mj_per_frame", piped.energy_per_frame_mj()));
    }
  }
  jrun.set("frame_pipeline", std::move(jfps));
  std::printf("%s\n", fps.to_string().c_str());
  std::printf("CPU-only engines cannot overlap (every stage needs the PS core);\n"
              "the FPGA engines overlap frame N's PL transform with frame N-1's\n"
              "fusion rule and frame N+1's prep on the PS.\n"
              "at 88x72 the pipelined FPGA+batch schedule sustains %.1f fps vs the\n"
              "serial runner's %.1f fps on the FPGA engine: %.1fx.\n\n",
              piped_batch_fps_full, serial_fpga_fps_full,
              serial_fpga_fps_full > 0.0 ? piped_batch_fps_full / serial_fpga_fps_full
                                         : 0.0);

  // --- 3: speedup vs frame depth at the full frame ---------------------------
  std::printf("[3] pipeline fill amortization, FPGA+batch at 88x72\n\n");
  TextTable depth({"frames in flight", "serial (s)", "pipelined (s)", "speedup",
                   "sustained fps"});
  json::Value jdepth = json::Value::array();
  for (int frames : {1, 2, 4, 8, options.frames}) {
    sched::BatchedFpgaBackend backend(config);
    const auto piped = sched::probe_pipelined(backend, {88, 72}, frames);
    depth.add_row({std::to_string(frames),
                   TextTable::num(piped.serial_total.sec(), 3),
                   TextTable::num(piped.makespan.sec(), 3),
                   TextTable::num(piped.speedup_vs_serial(), 2) + "x",
                   TextTable::num(piped.sustained_fps, 1)});
    jdepth.push(json::Value::object()
                    .set("frames", frames)
                    .set("serial_s", piped.serial_total.sec())
                    .set("pipelined_s", piped.makespan.sec())
                    .set("sustained_fps", piped.sustained_fps));
  }
  jrun.set("depth_sweep", std::move(jdepth));
  std::printf("%s\n", depth.to_string().c_str());
  std::printf("a single frame cannot pipeline (speedup 1.00x); the win saturates\n"
              "once the fill and drain slots amortize over the frame stream.\n\n");

  // --- 4: host wall-clock vs --threads ---------------------------------------
  // Same workload (FPGA+batch frame stream at 88x72) at 1 host thread and at
  // the configured width. The modeled columns must agree bit-for-bit — only
  // the wall-clock column is allowed to move.
  const int threads = host::default_threads();
  std::printf("[4] host wall-clock, FPGA+batch at 88x72, %d frames\n\n",
              options.frames);
  const std::vector<sched::FramePair> stream =
      sched::make_sweep_frames({88, 72}, options.frames);
  auto timed_run = [&stream, &config](int nthreads, sched::PipelineRunResult* out) {
    sched::RunConfig rc = config;
    rc.host.threads = nthreads;
    sched::BatchedFpgaBackend backend(rc);
    return wall_seconds([&] { *out = sched::run_pipelined(backend, stream); });
  };
  sched::PipelineRunResult serial_run, threaded_run;
  const double serial_wall = timed_run(1, &serial_run);
  const double threaded_wall = timed_run(threads, &threaded_run);
  const bool modeled_identical =
      serial_run.makespan == threaded_run.makespan &&
      serial_run.serial_total == threaded_run.serial_total &&
      serial_run.energy_mj == threaded_run.energy_mj;
  TextTable wall({"host threads", "wall (ms)", "speedup", "modeled identical"});
  wall.add_row({"1", TextTable::num(serial_wall * 1e3, 1), "1.00x", "-"});
  wall.add_row({std::to_string(threads), TextTable::num(threaded_wall * 1e3, 1),
                TextTable::num(serial_wall / threaded_wall, 2) + "x",
                modeled_identical ? "yes" : "NO"});
  std::printf("%s\n", wall.to_string().c_str());
  std::printf("host threads change how fast the numerics compute, never what the\n"
              "modeled ZC702 reports (accounting replays serially; see DESIGN.md).\n");
  if (!modeled_identical) {
    std::fprintf(stderr, "fatal: modeled output changed with --threads\n");
    return 1;
  }
  jrun.set("host_wall_clock",
           json::Value::object()
               .set("threads", threads)
               .set("wall_s_1_thread", serial_wall)
               .set("wall_s_n_threads", threaded_wall)
               .set("speedup", serial_wall / threaded_wall)
               .set("modeled_identical", modeled_identical));

  // --- 5: host-only fusion cost ---------------------------------------------
  // Repeated fuse_frames on one frame pair with no modeled backend, so the
  // host transform cost is not diluted by the event-queue bookkeeping that
  // dominates run_pipelined's host time: an 88x72 pair, and the large frames
  // whose level 0 runs in stripes (640x480, 1280x720). Wall clock only; each
  // size's wall_s_per_pair is tracked by perf_history.py.
  std::printf("\n[5] host-only fuse_frames, %d thread(s)\n\n", config.host.threads);
  dwt::KernelLineFilter host_filter(simd::active_kernels(), config.host);
  auto host_us_per_pair = [&](const sched::FramePair& pair, int iters) {
    auto fuse_once = [&] {
      (void)fusion::fuse_frames(pair.visible, pair.thermal, config.fuse, host_filter);
    };
    for (int i = 0; i < std::max(1, iters / 4); ++i) fuse_once();  // warm the arenas
    return wall_seconds([&] {
             for (int i = 0; i < iters; ++i) fuse_once();
           }) / iters * 1e6;
  };
  const int host_iters = std::max(20, 10 * options.frames);
  double host_us = 0.0;  // at 88x72, for [5b]
  TextTable host_only({"frame", "host-only (us/pair)", "ns/px"});
  json::Value jframes = json::Value::object();
  for (const sched::FrameSize size : {sched::FrameSize{88, 72},
                                      sched::FrameSize{640, 480},
                                      sched::FrameSize{1280, 720}}) {
    const int iters = std::max(3, host_iters * 88 * 72 / size.pixels());
    const double us = host_us_per_pair(sched::make_sweep_frames(size, 1)[0], iters);
    if (size.width == 88) host_us = us;
    host_only.add_row({size.label(), TextTable::num(us, 1),
                       TextTable::num(us * 1e3 / size.pixels(), 2)});
    jframes.set(size.label(), json::Value::object()
                                  .set("us_per_pair", us)
                                  .set("wall_s_per_pair", us * 1e-6));
  }
  std::printf("%s\n", host_only.to_string().c_str());
  json::Value jhost = json::Value::object();
  jhost.set("us_per_pair", host_us);
  jhost.set("frames", std::move(jframes));
  jrun.set("host_only_fuse", std::move(jhost));

  // --- 5b: estimated DRAM traffic and arithmetic intensity -------------------
  // Derived from the pass structure (pass counts x band sizes, 4 bytes per
  // element move — see FusionPlan::estimate_traffic), not measured: the
  // point is the pass-count ratio the fused plan removes over a staged
  // fusion on the tiled transforms, and the host bandwidth the fused plan
  // implies at the host-only wall-clock of [5], which can be sanity-checked
  // against bench_membw's STREAM numbers.
  {
    const dwt::FusionPlan plan(72, 88, config.fuse.transform);
    const dwt::FusionPlan::Traffic traffic = plan.estimate_traffic();
    const double fused_gbps = traffic.fused_bytes / (host_us * 1e-6) * 1e-9;
    TextTable tt({"path", "est. MB/frame pair", "flops/byte",
                  "implied GB/s at host-only wall"});
    tt.add_row({"staged", TextTable::num(traffic.staged_bytes * 1e-6, 3),
                TextTable::num(traffic.flops / traffic.staged_bytes, 2), "-"});
    tt.add_row({"fused", TextTable::num(traffic.fused_bytes * 1e-6, 3),
                TextTable::num(traffic.flops / traffic.fused_bytes, 2),
                TextTable::num(fused_gbps, 2)});
    std::printf("\n[5b] estimated transform traffic at 88x72\n\n%s\n",
                tt.to_string().c_str());
    std::printf("fused/staged bytes ratio: %.2fx fewer bytes per frame pair.\n"
                "cross-check: the implied GB/s must sit below the copy/triad\n"
                "bandwidth bench_membw reports, and the fused row's higher\n"
                "flops/byte is the point — fewer DRAM passes per MAC.\n",
                traffic.staged_bytes / traffic.fused_bytes);
    jrun.set("transform_traffic",
             json::Value::object()
                 .set("staged_bytes_per_frame_pair", traffic.staged_bytes)
                 .set("fused_bytes_per_frame_pair", traffic.fused_bytes)
                 .set("bytes_ratio_staged_over_fused",
                      traffic.staged_bytes / traffic.fused_bytes)
                 .set("flops_per_frame_pair", traffic.flops)
                 .set("arith_intensity_staged", traffic.flops / traffic.staged_bytes)
                 .set("arith_intensity_fused", traffic.flops / traffic.fused_bytes)
                 // "wall" in the key exempts these from the baseline drift
                 // check — they are derived from host wall-clock, unlike the
                 // modeled byte/flop counts above.
                 .set("wall_implied_gbps_fused", fused_gbps));
  }

  // --- 6: cross-frame streaming + scatter-gather driver ----------------------
  // The streaming replay keeps the engine's ping-pong buffers hot across
  // frame boundaries and amortizes the driver entry over a descriptor chain
  // (ISSUE 9). Two views: the pipelined break-point sweep extended below the
  // paper's smallest size (16x12, 24x18 are bench-local; paper_frame_sizes()
  // is locked), and the sustained-fps sweep over the chain length at 88x72.
  constexpr int kStreamingChain = 8;
  std::printf("\n[6] cross-frame streaming, pipelined totals (%d frames)\n\n",
              options.frames);
  auto piped_at = [&](const sched::RunConfig& rc) {
    sched::BatchedFpgaBackend backend(rc);
    return sched::probe_pipelined(backend, rc);
  };
  json::Value jstreaming = json::Value::object();
  jstreaming.set("sg_chain_len", kStreamingChain);
  json::Value jsweep = json::Value::array();
  TextTable stream_tbl({"frame size", "NEON piped (s)", "FPGA piped (s)",
                        "streaming (s)", "stream vs legacy", "best engine"});
  std::vector<sched::FrameSize> stream_sizes = {{16, 12}, {24, 18}};
  for (const sched::FrameSize& size : sched::paper_frame_sizes()) {
    stream_sizes.push_back(size);
  }
  std::string legacy_break = "none", streaming_break = "none";
  for (const sched::FrameSize& size : stream_sizes) {
    sched::RunConfig legacy_cfg = config;
    legacy_cfg.frame_size = size;
    legacy_cfg.cross_frame = false;
    legacy_cfg.batching.sg_chain_len = 1;
    sched::RunConfig stream_cfg = legacy_cfg;
    stream_cfg.cross_frame = true;
    stream_cfg.batching.sg_chain_len = kStreamingChain;

    sched::PipelineRunResult neon;
    with_backend(EngineChoice::kNeon, legacy_cfg, [&](sched::TransformBackend& b) {
      neon = sched::probe_pipelined(b, legacy_cfg);
    });
    const sched::PipelineRunResult legacy = piped_at(legacy_cfg);
    const sched::PipelineRunResult streaming = piped_at(stream_cfg);
    if (legacy.makespan < neon.makespan && legacy_break == "none") {
      legacy_break = size.label();
    }
    if (streaming.makespan < neon.makespan && streaming_break == "none") {
      streaming_break = size.label();
    }
    const bool stream_wins = streaming.makespan < neon.makespan;
    stream_tbl.add_row(
        {size.label(), TextTable::num(neon.makespan.sec(), 4),
         TextTable::num(legacy.makespan.sec(), 4),
         TextTable::num(streaming.makespan.sec(), 4),
         TextTable::num(100.0 * (1.0 - streaming.makespan / legacy.makespan), 1) +
             "%",
         stream_wins ? "FPGA+stream" : "NEON"});
    jsweep.push(json::Value::object()
                    .set("size", size.label())
                    .set("neon_piped_s", neon.makespan.sec())
                    .set("fpga_piped_s", legacy.makespan.sec())
                    .set("fpga_streaming_s", streaming.makespan.sec())
                    .set("streaming_fps", streaming.sustained_fps)
                    .set("streaming_mj_per_frame", streaming.energy_per_frame_mj())
                    .set("best", stream_wins ? "FPGA+stream" : "NEON"));
  }
  jstreaming.set("break_point_sweep", std::move(jsweep));
  jstreaming.set("break_point_legacy", legacy_break);
  jstreaming.set("break_point_streaming", streaming_break);
  std::printf("%s\n", stream_tbl.to_string().c_str());
  std::printf("pipelined break point (first size the FPGA wins): legacy %s,\n"
              "streaming %s. 16x12 and 24x18 extend the sweep below the\n"
              "paper's smallest size to show where the driver entry stops\n"
              "dominating once descriptor chains amortize it.\n\n",
              legacy_break.c_str(), streaming_break.c_str());

  std::printf("[6b] chain-length sweep, FPGA+batch at 88x72 (%d frames)\n\n",
              options.frames);
  TextTable sg_tbl({"schedule", "sustained fps", "makespan (s)", "mJ/frame"});
  json::Value jsg = json::Value::array();
  {
    sched::RunConfig legacy_cfg = config;
    legacy_cfg.frame_size = {88, 72};
    legacy_cfg.cross_frame = false;
    legacy_cfg.batching.sg_chain_len = 1;
    const sched::PipelineRunResult legacy = piped_at(legacy_cfg);
    sg_tbl.add_row({"legacy overlap", TextTable::num(legacy.sustained_fps, 1),
                    TextTable::num(legacy.makespan.sec(), 4),
                    TextTable::num(legacy.energy_per_frame_mj(), 2)});
    jsg.push(json::Value::object()
                 .set("mode", "legacy")
                 .set("sg_chain_len", 1)
                 .set("sustained_fps", legacy.sustained_fps)
                 .set("makespan_s", legacy.makespan.sec())
                 .set("mj_per_frame", legacy.energy_per_frame_mj()));
    for (int sg : {1, 2, 4, 8, 16}) {
      sched::RunConfig stream_cfg = legacy_cfg;
      stream_cfg.cross_frame = true;
      stream_cfg.batching.sg_chain_len = sg;
      const sched::PipelineRunResult streaming = piped_at(stream_cfg);
      sg_tbl.add_row({"streaming sg=" + std::to_string(sg),
                      TextTable::num(streaming.sustained_fps, 1),
                      TextTable::num(streaming.makespan.sec(), 4),
                      TextTable::num(streaming.energy_per_frame_mj(), 2)});
      jsg.push(json::Value::object()
                   .set("mode", "streaming")
                   .set("sg_chain_len", sg)
                   .set("sustained_fps", streaming.sustained_fps)
                   .set("makespan_s", streaming.makespan.sec())
                   .set("mj_per_frame", streaming.energy_per_frame_mj()));
    }
  }
  jstreaming.set("chain_sweep", std::move(jsg));
  jrun.set("streaming", std::move(jstreaming));
  std::printf("%s\n", sg_tbl.to_string().c_str());
  std::printf("sg=1 streaming pays every driver entry on the PS core explicitly\n"
              "(the legacy stage split hides the part that overlapped DMA), so\n"
              "the chain is what wins: one ioctl arms up to sg batches and the\n"
              "rest cost a descriptor append + fetch.\n");

  return write_json_report(options, jrun);
}
