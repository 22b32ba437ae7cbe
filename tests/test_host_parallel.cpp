// Host-parallel execution contract (thread_pool.h + the parallel transform
// paths): any --threads width computes bit-identical numerics AND leaves the
// modeled ZC702 output bit-identical, because accounting replays serially in
// canonical order. These tests pin both halves of that contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/fusion/fuse.h"
#include "src/sched/adaptive.h"
#include "src/sched/pipeline.h"
#include "src/simd/dispatch.h"
#include "tests/dtcwt_oracle.h"

namespace {

using namespace vf;

// --- pool mechanics ---------------------------------------------------------

TEST(ThreadPool, StaticPartitionCoversRangeOnce) {
  ThreadPool pool(4);
  for (int n : {1, 2, 3, 4, 5, 7, 16, 61, 72, 88}) {
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    std::vector<std::pair<int, int>> chunks;
    std::mutex m;
    pool.parallel_for(0, n, [&](int b, int e) {
      std::lock_guard<std::mutex> lock(m);
      chunks.emplace_back(b, e);
      for (int i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
    });
    for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1) << i;
    // Static partition: sorted chunks tile [0, n) contiguously, sizes differ
    // by at most one, and there are min(threads, n) of them.
    std::sort(chunks.begin(), chunks.end());
    EXPECT_EQ(static_cast<int>(chunks.size()), std::min(4, n));
    int expect_begin = 0, min_sz = n, max_sz = 0;
    for (const auto& [b, e] : chunks) {
      EXPECT_EQ(b, expect_begin);
      expect_begin = e;
      min_sz = std::min(min_sz, e - b);
      max_sz = std::max(max_sz, e - b);
    }
    EXPECT_EQ(expect_begin, n);
    EXPECT_LE(max_sz - min_sz, 1);
  }
}

TEST(ThreadPool, OffsetRangeAndEmptyRange) {
  ThreadPool pool(3);
  std::vector<int> hits(10, 0);
  pool.parallel_for(4, 9, [&](int b, int e) {
    for (int i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)],
                                         i >= 4 && i < 9 ? 1 : 0);
  bool called = false;
  pool.parallel_for(5, 5, [&](int, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_chunks{0};
  std::atomic<int> outer_chunks{0};
  pool.parallel_for(0, 4, [&](int b, int e) {
    ++outer_chunks;
    // From a worker the nested call must run the whole range as one inline
    // chunk — no new job submission, no deadlock.
    pool.parallel_for(0, 8, [&](int ib, int ie) {
      ++inner_chunks;
      EXPECT_EQ(ib, 0);
      EXPECT_EQ(ie, 8);
    });
    (void)b;
    (void)e;
  });
  EXPECT_EQ(outer_chunks.load(), 4);
  EXPECT_EQ(inner_chunks.load(), 4);
}

TEST(HostPoolRegistry, SerialWidthsHaveNoPool) {
  // Library default is serial: HostConfig{} resolves to 1 thread -> nullptr.
  EXPECT_EQ(host::default_threads(), 1);
  EXPECT_EQ(host::pool(HostConfig{}), nullptr);
  EXPECT_EQ(host::pool(HostConfig{1}), nullptr);
  ThreadPool* p4 = host::pool(HostConfig{4});
  if (host::kMaxThreads == 1) {
    EXPECT_EQ(p4, nullptr);  // -DVF_THREADS=1 build: threading compiled out
  } else {
    ASSERT_NE(p4, nullptr);
    EXPECT_EQ(p4->threads(),
              host::kMaxThreads > 0 ? std::min(4, host::kMaxThreads) : 4);
    EXPECT_EQ(host::pool(HostConfig{4}), p4);  // registry caches per width
  }
}

// --- bit-identity across thread counts --------------------------------------

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv1a_bytes(const void* data, std::size_t n, std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<const unsigned char*>(data)[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_image(const image::ImageF& img) {
  return fnv1a_bytes(img.data(), img.size() * sizeof(float), kFnvBasis);
}

const int kThreadWidths[] = {1, 2, 8};

// Fused image bits must not depend on the host pool width.
TEST(HostParallelIdentity, FusedImageBitsInvariantAcrossThreads) {
  const auto frames = sched::make_sweep_frames({88, 72}, 1);
  std::uint64_t ref_hash = 0;
  for (int n : kThreadWidths) {
    dwt::KernelLineFilter filter(simd::simd_kernels(), HostConfig{n});
    const image::ImageF fused =
        fusion::fuse_frames(frames[0].visible, frames[0].thermal, {}, filter);
    const std::uint64_t h = hash_image(fused);
    if (n == 1) {
      ref_hash = h;
    } else {
      EXPECT_EQ(h, ref_hash) << "threads=" << n;
    }
  }
}

// MAC statistics are accounting: replayed serially, so totals are exactly
// equal (not merely close) at any width.
TEST(HostParallelIdentity, FilterStatsInvariantAcrossThreads) {
  const auto frames = sched::make_sweep_frames({64, 48}, 1);
  dwt::KernelLineFilter serial(simd::scalar_kernels());
  (void)fusion::fuse_frames(frames[0].visible, frames[0].thermal, {}, serial);
  for (int n : {2, 8}) {
    dwt::KernelLineFilter pooled(simd::scalar_kernels(), HostConfig{n});
    const image::ImageF fused =
        fusion::fuse_frames(frames[0].visible, frames[0].thermal, {}, pooled);
    EXPECT_EQ(pooled.stats().analysis_macs, serial.stats().analysis_macs);
    EXPECT_EQ(pooled.stats().synthesis_macs, serial.stats().synthesis_macs);
    EXPECT_EQ(pooled.stats().analysis_lines, serial.stats().analysis_lines);
    EXPECT_EQ(pooled.stats().synthesis_lines, serial.stats().synthesis_lines);
    (void)fused;
  }
}

// Every modeled backend: probe totals and energy bit-identical at any width.
TEST(HostParallelIdentity, ModeledProbeInvariantAcrossThreads) {
  const sched::FrameSize size{88, 72};
  const int frames = 2;
  struct Case {
    const char* name;
    sched::ProbeResult result[3];
  };
  std::vector<Case> cases;
  for (int i = 0; i < 3; ++i) {
    const HostConfig host{kThreadWidths[i]};
    std::size_t c = 0;
    auto record = [&](const char* name, sched::TransformBackend& b) {
      if (i == 0) cases.push_back({name, {}});
      cases[c++].result[i] = sched::probe_backend(b, size, frames);
    };
    sched::RunConfig run;
    run.host = host;
    const sched::BackendKind kinds[] = {
        sched::BackendKind::kArm, sched::BackendKind::kNeon,
        sched::BackendKind::kFpga, sched::BackendKind::kFpgaBatched,
        sched::BackendKind::kAdaptive};
    for (const sched::BackendKind kind : kinds) {
      const auto b = sched::make_backend(kind, run);
      record(sched::backend_name(kind), *b);
    }
  }
  for (const Case& c : cases) {
    for (int i = 1; i < 3; ++i) {
      EXPECT_TRUE(c.result[i].total == c.result[0].total)
          << c.name << " threads=" << kThreadWidths[i] << " total "
          << c.result[i].total.sec() << " vs " << c.result[0].total.sec();
      EXPECT_TRUE(c.result[i].forward == c.result[0].forward) << c.name;
      EXPECT_TRUE(c.result[i].inverse == c.result[0].inverse) << c.name;
      EXPECT_EQ(c.result[i].energy_mj, c.result[0].energy_mj) << c.name;
    }
  }
}

// The event-queue pipeline schedule too: makespan/ledger/energy bit-identical.
TEST(HostParallelIdentity, PipelinedRunInvariantAcrossThreads) {
  const auto stream = sched::make_sweep_frames({88, 72}, 4);
  sched::PipelineRunResult ref;
  for (int i = 0; i < 3; ++i) {
    sched::RunConfig rc;
    rc.host.threads = kThreadWidths[i];
    sched::BatchedFpgaBackend backend(rc);
    const sched::PipelineRunResult run = sched::run_pipelined(backend, stream);
    if (i == 0) {
      ref = run;
      continue;
    }
    EXPECT_TRUE(run.makespan == ref.makespan) << "threads=" << kThreadWidths[i];
    EXPECT_TRUE(run.serial_total == ref.serial_total);
    EXPECT_TRUE(run.ps_busy == ref.ps_busy);
    EXPECT_TRUE(run.pl_busy == ref.pl_busy);
    EXPECT_EQ(run.energy_mj, ref.energy_mj);
    EXPECT_EQ(run.energy_gated_mj, ref.energy_gated_mj);
  }
}

// --- one host path, pinned by the scalar oracle -----------------------------

// Kernel sets whose fused bits must equal the oracle's exactly.
const simd::KernelSet* const kExactSets[] = {&simd::scalar_kernels(),
                                             &simd::simd_kernels()};

bool same_bits(const image::ImageF& a, const image::ImageF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// fuse_frames (always the band-streaming plan) against the scalar oracle at
// sizes that are all tile tail (1xN), straddle the 8x8 tile edge (9x7,
// 33x25), have odd rows at scale (88x71), and at the paper's largest frame,
// for every pool width and exact kernel set. The plan filters columns in
// blocks of 8 lanes: the widths below leave every partial block of 1..7
// lanes at some level (2x2 .. 46x38, with odd deep-level dims), and 640x50
// splits its level-0 column pass into several row strips. The row passes run
// in slabs of 8 rows: 88x10 leaves tails of 2, 6 and 4 rows at levels 0-2,
// and 24x200 many full slabs plus tails of 4 and 2. autovec may differ from
// scalar by 1 ulp per kernel call, so it is held to a tolerance.
TEST(OracleIdentity, FuseFramesMatchesOracleAtEveryShape) {
  const sched::FrameSize sizes[] = {{9, 7},   {33, 25}, {1, 16},   {16, 1},
                                    {88, 71}, {88, 72}, {2, 2},    {3, 5},
                                    {18, 14}, {30, 22}, {46, 38},  {32, 24},
                                    {640, 50}, {88, 10}, {24, 200}};
  for (const sched::FrameSize& size : sizes) {
    const auto frames = sched::make_sweep_frames(size, 1);
    const image::ImageF& a = frames[0].visible;
    const image::ImageF& b = frames[0].thermal;
    const image::ImageF ref = oracle::fuse(a, b, dwt::TransformConfig{});
    for (int n : kThreadWidths) {
      for (const simd::KernelSet* set : kExactSets) {
        dwt::KernelLineFilter filter(*set, HostConfig{n});
        EXPECT_TRUE(same_bits(fusion::fuse_frames(a, b, {}, filter), ref))
            << size.width << "x" << size.height << " threads=" << n << " "
            << set->name;
      }
      dwt::KernelLineFilter autovec(simd::autovec_kernels(), HostConfig{n});
      const image::ImageF got = fusion::fuse_frames(a, b, {}, autovec);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got.data()[i], ref.data()[i], 1e-5)
            << size.width << "x" << size.height << " autovec threads=" << n;
      }
    }
  }
}

// The staged transforms (the only implementation of standalone
// forward_dtcwt/inverse_dtcwt and the DWT baseline) against the oracle:
// every band of every tree, the reconstruction, and fuse_frames_dwt.
TEST(OracleIdentity, StandaloneTransformsMatchOracle) {
  const sched::FrameSize sizes[] = {{9, 7}, {33, 25}, {1, 16}, {88, 71}, {46, 38}};
  for (const sched::FrameSize& size : sizes) {
    const auto frames = sched::make_sweep_frames(size, 1);
    const image::ImageF& a = frames[0].visible;
    const dwt::TransformConfig config;
    const dwt::DtcwtPyramid ref = oracle::forward_dtcwt(a, config);
    const image::ImageF ref_rec = oracle::inverse_dtcwt(ref, config);
    const image::ImageF ref_dwt =
        oracle::fuse_dwt(a, frames[0].thermal, config);
    for (int n : kThreadWidths) {
      for (const simd::KernelSet* set : kExactSets) {
        dwt::KernelLineFilter filter(*set, HostConfig{n});
        const std::string at = std::to_string(size.width) + "x" +
                               std::to_string(size.height) + " threads=" +
                               std::to_string(n) + " " + set->name;
        const dwt::DtcwtPyramid pyr = dwt::forward_dtcwt(a, config, filter);
        for (int t = 0; t < 4; ++t) {
          ASSERT_EQ(pyr.tree[t].levels.size(), ref.tree[t].levels.size()) << at;
          for (std::size_t lv = 0; lv < ref.tree[t].levels.size(); ++lv) {
            for (int sb = 0; sb < 3; ++sb) {
              EXPECT_TRUE(same_bits(oracle::band(pyr.tree[t].levels[lv], sb),
                                    oracle::band(ref.tree[t].levels[lv], sb)))
                  << at << " tree " << t << " level " << lv << " band " << sb;
            }
          }
          EXPECT_TRUE(same_bits(pyr.tree[t].ll, ref.tree[t].ll)) << at << " ll " << t;
        }
        EXPECT_TRUE(same_bits(dwt::inverse_dtcwt(pyr, config, filter), ref_rec)) << at;
        EXPECT_TRUE(same_bits(fusion::fuse_frames_dwt(a, frames[0].thermal, {}, filter),
                              ref_dwt))
            << at << " dwt";
      }
    }
  }
}

// --- golden hashes of the modeled call stream --------------------------------
//
// Pinned on the last tree that still had the per-line and tiled frame-pair
// paths (x86-64, no FMA contraction), so deleting them provably changed no
// account_*/barrier() call and no modeled second or millijoule.

// Folds every account_*/barrier() call, with its arguments, into FNV-1a.
class RecordingFilter : public dwt::LineFilter {
 public:
  explicit RecordingFilter(const HostConfig& host) : pool_(host::pool(host)) {}
  ThreadPool* pool() const override { return pool_; }
  void barrier() override { mix(0, 0, 0); }
  void account_analyze(int out_len, int taps) override { mix(1, out_len, taps); }
  void account_synthesize(int pairs, int taps) override { mix(2, pairs, taps); }
  void account_magnitude(int n) override { mix(3, n, 0); }
  void account_select(int n) override { mix(4, n, 0); }
  std::uint64_t hash() const { return hash_; }

 private:
  void mix(int kind, int a, int b) {
    const int v[3] = {kind, a, b};
    hash_ = fnv1a_bytes(v, sizeof v, hash_);
  }
  ThreadPool* pool_;
  std::uint64_t hash_ = kFnvBasis;
};

template <std::size_t N>
std::uint64_t hash_doubles(const double (&v)[N]) {
  return fnv1a_bytes(v, sizeof v, kFnvBasis);
}

// fuse_frames, the standalone forward_dtcwt -> inverse_dtcwt round trip and
// the DWT baseline fuse_frames_dwt. The standalone hashes were pinned on the
// last tree whose serial transforms interleaved accounting with numerics.
TEST(OracleIdentity, AccountSequenceMatchesGoldenHashes) {
  struct Golden {
    sched::FrameSize size;
    std::uint64_t fuse, dtcwt, dwt;
  };
  const Golden goldens[] = {
      {{33, 25}, 0xb811ccaa819ac263ull, 0x0e28c54648181fc3ull, 0x1e92d5f2b769f281ull},
      {{88, 72}, 0x577ca4fa0e8ba24full, 0x321984cd6f6a6f83ull, 0xf1d9194d6c2331bdull},
  };
  const dwt::TransformConfig config;
  for (const Golden& g : goldens) {
    const auto frames = sched::make_sweep_frames(g.size, 1);
    const image::ImageF& a = frames[0].visible;
    const image::ImageF& b = frames[0].thermal;
    for (int n : kThreadWidths) {
      const std::string at = std::to_string(g.size.width) + "x" +
                             std::to_string(g.size.height) + " threads=" +
                             std::to_string(n);
      RecordingFilter fuse{HostConfig{n}};
      (void)fusion::fuse_frames(a, b, {}, fuse);
      EXPECT_EQ(fuse.hash(), g.fuse) << at << " fuse_frames";
      RecordingFilter dtcwt{HostConfig{n}};
      (void)dwt::inverse_dtcwt(dwt::forward_dtcwt(a, config, dtcwt), config, dtcwt);
      EXPECT_EQ(dtcwt.hash(), g.dtcwt) << at << " dtcwt round trip";
      RecordingFilter dwt{HostConfig{n}};
      (void)fusion::fuse_frames_dwt(a, b, {}, dwt);
      EXPECT_EQ(dwt.hash(), g.dwt) << at << " fuse_frames_dwt";
    }
  }
}

// Every modeled backend's probe: stage times, total and energy. The
// FPGA+batch hashes were re-pinned when its pass-1 timeline moved to a
// frame-relative origin: frame 1's stage costs are no longer differences of
// absolute times that carry frame 0's makespan, so they round differently
// (about 1e-15 relative); every other backend's hash is unchanged.
TEST(OracleIdentity, ModeledProbeMatchesGoldenHashes) {
  struct Golden {
    sched::FrameSize size;
    std::uint64_t probe[5];  // ARM, NEON, FPGA, FPGA+batch, Adaptive
  };
  const Golden goldens[] = {
      {{33, 25},
       {0x4c605200adea034dull, 0xd45883de92bada54ull, 0x0501062e0feafa4dull,
        0xc98d7638a7d191e3ull, 0x46cb52ff0402b37cull}},
      {{88, 72},
       {0xef70d3375f9abfcdull, 0xe9592be91fb0aa82ull, 0xd4df8909b0338de1ull,
        0x0414daa5ea59f1d8ull, 0xb2147c5fdf928ae0ull}},
  };
  const sched::BackendKind kinds[] = {
      sched::BackendKind::kArm, sched::BackendKind::kNeon,
      sched::BackendKind::kFpga, sched::BackendKind::kFpgaBatched,
      sched::BackendKind::kAdaptive};
  for (const Golden& g : goldens) {
    for (int k = 0; k < 5; ++k) {
      const auto b = sched::make_backend(kinds[k], sched::RunConfig{});
      const sched::ProbeResult p = sched::probe_backend(*b, g.size, 2);
      const double v[6] = {p.prep.sec(),    p.forward.sec(), p.fusion.sec(),
                           p.inverse.sec(), p.total.sec(),   p.energy_mj};
      EXPECT_EQ(hash_doubles(v), g.probe[k])
          << g.size.width << "x" << g.size.height << " "
          << sched::backend_name(kinds[k]);
    }
  }
}

// The event-queue pipeline, legacy and cross-frame streaming with SG chains.
// Re-pinned with the frame-relative pass-1 origin: the FPGA+batch stage
// costs round differently, which moves serial_total in both cases and the
// legacy stage-granular schedule built from those costs; the streaming
// replay's op lists, so its makespan, busy times and energy, did not move.
TEST(OracleIdentity, PipelinedRunMatchesGoldenHashes) {
  const std::uint64_t golden[2] = {0x93288c7f0695e562ull, 0xe64aae452c094e29ull};
  const auto stream = sched::make_sweep_frames({33, 25}, 3);
  for (int cross = 0; cross < 2; ++cross) {
    sched::RunConfig rc;
    rc.cross_frame = cross != 0;
    rc.batching.sg_chain_len = cross ? 4 : 1;
    sched::BatchedFpgaBackend backend(rc);
    const sched::PipelineRunResult r = sched::run_pipelined(backend, stream, rc);
    const double v[7] = {r.serial_total.sec(), r.makespan.sec(), r.ps_busy.sec(),
                         r.pl_busy.sec(),      r.sustained_fps,  r.energy_mj,
                         r.energy_gated_mj};
    EXPECT_EQ(hash_doubles(v), golden[cross]) << "cross_frame=" << cross;
  }
}

// --- bit-identity across kernel flavours -------------------------------------

struct KernelSetRestore {
  ~KernelSetRestore() { simd::set_active_kernels("simd"); }
};

// The scalar and simd sets must fuse to the same bits, both through a filter
// pinned to each set and through the process-wide dispatch that the modeled
// backends' filters read (LineFilter::kernels() default).
TEST(HostParallelIdentity, ScalarAndSimdDispatchFuseIdentically) {
  KernelSetRestore restore;
  const auto frames = sched::make_sweep_frames({40, 40}, 1);
  auto fuse_with = [&](const simd::KernelSet& set) {
    dwt::KernelLineFilter filter(set, HostConfig{2});
    return hash_image(
        fusion::fuse_frames(frames[0].visible, frames[0].thermal, {}, filter));
  };
  const std::uint64_t h_scalar = fuse_with(simd::scalar_kernels());
  EXPECT_EQ(fuse_with(simd::simd_kernels()), h_scalar);
  for (const char* name : {"scalar", "simd"}) {
    ASSERT_TRUE(simd::set_active_kernels(name));
    ASSERT_STREQ(simd::active_kernels().name, name);
    EXPECT_EQ(fuse_with(simd::active_kernels()), h_scalar) << name;
    const auto neon = sched::make_backend(sched::BackendKind::kNeon, sched::RunConfig{});
    EXPECT_EQ(&neon->line_filter().kernels(), &simd::active_kernels()) << name;
  }
}

}  // namespace
