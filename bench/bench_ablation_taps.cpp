// Ablation A4 — engine coefficient-register depth (12 vs 14 slots).
//
// The paper's HLS code holds 12 coefficients per register; the standard
// Kingsbury q-shift filters need 14. This bench quantifies the trade:
// fabric cost of the deeper engine vs which wavelet sets each depth can run,
// and the impact of the level-1 bank choice on fusion quality.
#include "bench/bench_util.h"
#include "src/fusion/fuse.h"
#include "src/hw/resources.h"

int main(int argc, char** argv) {
  using namespace vf;
  using namespace vf::bench;

  const BenchOptions options = parse_bench_options(argc, argv);
  note_frames_unused(options, "single-frame engine-fit ablation");
  json::Value jrun = json_run_header("bench_ablation_taps", options);

  print_header("Ablation A4 — engine register depth vs resources and filters",
               "§V Fig. 4 (12-deep shift register) + Table I");

  const hw::DevicePart part;
  TextTable res({"slots", "registers", "LUTs", "slices", "slice util",
                 "fits LeGall 5/3", "fits CDF 9/7", "fits q-shift 14"});
  json::Value jdepths = json::Value::array();
  for (int slots : {8, 10, 12, 14, 16}) {
    hw::WaveletEngineConfig config = hw::paper_engine_config();
    config.slots = slots;
    const hw::ResourceUsage u = estimate_engine_resources(config);
    auto fits = [&](dwt::Wavelet w) {
      return required_slots(dwt::make_filter_bank(w)) <= slots ? "yes" : "no";
    };
    res.add_row({std::to_string(slots), std::to_string(u.registers),
                 std::to_string(u.luts), std::to_string(u.slices),
                 std::to_string(u.pct_slices(part)) + "%",
                 fits(dwt::Wavelet::kLeGall53), fits(dwt::Wavelet::kCdf97),
                 fits(dwt::Wavelet::kQshift14A)});
    jdepths.push(json::Value::object()
                     .set("slots", slots)
                     .set("registers", u.registers)
                     .set("luts", u.luts)
                     .set("slices", u.slices)
                     .set("fits_legall53",
                          std::string(fits(dwt::Wavelet::kLeGall53)) == "yes")
                     .set("fits_cdf97",
                          std::string(fits(dwt::Wavelet::kCdf97)) == "yes")
                     .set("fits_qshift14",
                          std::string(fits(dwt::Wavelet::kQshift14A)) == "yes"));
  }
  jrun.set("register_depths", std::move(jdepths));
  std::printf("%s\n", res.to_string().c_str());

  // Quality impact of the level-1 bank choice (both fit 12 slots, but the
  // q-shift levels >= 2 need 14).
  std::printf("fusion quality by level-1 wavelet (88x72 scene, max-magnitude rule):\n");
  const auto pairs = sched::make_sweep_frames({88, 72}, 1);
  TextTable quality({"level-1 bank", "entropy", "MI", "Qabf"});
  json::Value jquality = json::Value::array();
  for (dwt::Wavelet w : {dwt::Wavelet::kLeGall53, dwt::Wavelet::kCdf97}) {
    fusion::FuseConfig config;
    config.transform.level1 = w;
    dwt::KernelLineFilter backend(simd::scalar_kernels());
    const fusion::FusionOutcome outcome =
        fuse_frames_with_quality(pairs[0].visible, pairs[0].thermal, config, backend);
    quality.add_row({wavelet_name(w), TextTable::num(outcome.quality.entropy_fused, 3),
                     TextTable::num(outcome.quality.mi, 3),
                     TextTable::num(outcome.quality.qabf, 3)});
    jquality.push(json::Value::object()
                      .set("level1_bank", wavelet_name(w))
                      .set("entropy", outcome.quality.entropy_fused)
                      .set("mi", outcome.quality.mi)
                      .set("qabf", outcome.quality.qabf));
  }
  jrun.set("level1_quality", std::move(jquality));
  std::printf("%s\n", quality.to_string().c_str());
  std::printf("a 14-slot engine costs ~%.0f%% more slices than the paper's 12-slot\n"
              "configuration but is required for the shift-invariant q-shift levels;\n"
              "the paper's 12-slot engine implies shorter (non-q-shift) filters.\n",
              100.0 * (static_cast<double>(estimate_engine_resources(
                           hw::WaveletEngineConfig{}).slices) /
                           estimate_engine_resources(hw::paper_engine_config()).slices -
                       1.0));
  return write_json_report(options, jrun);
}
