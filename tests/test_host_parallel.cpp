// Host-parallel execution contract (thread_pool.h + the parallel transform
// paths): any --threads width computes bit-identical numerics AND leaves the
// modeled ZC702 output bit-identical, because accounting replays serially in
// canonical order. These tests pin both halves of that contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/fusion/fuse.h"
#include "src/sched/adaptive.h"
#include "src/sched/pipeline.h"
#include "src/simd/dispatch.h"

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

std::uint64_t fnv1a(const float* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n * sizeof(float); ++i) {
    h ^= reinterpret_cast<const unsigned char*>(data)[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_image(const image::ImageF& img) {
  return fnv1a(img.data(), img.size());
}

const int kThreadWidths[] = {1, 2, 8};

// Fused image bits must not depend on the host pool width.
TEST(HostParallelIdentity, FusedImageBitsInvariantAcrossThreads) {
  const auto frames = sched::make_sweep_frames({88, 72}, 1);
  std::uint64_t ref_hash = 0;
  for (int n : kThreadWidths) {
    dwt::SimdLineFilter filter{HostConfig{n}};
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
  dwt::ScalarLineFilter serial;
  (void)fusion::fuse_frames(frames[0].visible, frames[0].thermal, {}, serial);
  for (int n : {2, 8}) {
    dwt::ScalarLineFilter pooled{HostConfig{n}};
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

// --- bit-identity across host memory layouts ---------------------------------

struct LayoutRestore {
  ~LayoutRestore() { dwt::set_host_layout(dwt::HostLayout::kFused); }
};

const dwt::HostLayout kLayouts[] = {dwt::HostLayout::kNaive,
                                    dwt::HostLayout::kTiled,
                                    dwt::HostLayout::kFused};

// The tiled and band-streaming-fused paths are pure layout changes: per-line
// arithmetic order is pinned by the kernel contracts (the lane-interleaved
// column kernels keep each column's scalar order), so fused bits must match
// the naive per-line path exactly — at sizes that are all tile tail (1xN),
// straddle the 8x8 tile edge (9x7, 33x25), have odd rows at scale (88x71),
// and at the paper's largest frame, for every pool width. The fused plan
// filters columns in blocks of 8 lanes: the widths below leave every partial
// block of 1..7 lanes at some level (2x2 .. 46x38, with odd deep-level
// dims), and 640x50 splits its level-0 column pass into several row strips.
TEST(HostLayoutIdentity, AllLayoutsFuseIdenticalBits) {
  LayoutRestore restore;
  const sched::FrameSize sizes[] = {{9, 7},   {33, 25}, {1, 16},  {16, 1},
                                    {88, 71}, {88, 72}, {2, 2},   {3, 5},
                                    {18, 14}, {30, 22}, {46, 38}, {32, 24},
                                    {640, 50}};
  for (const sched::FrameSize& size : sizes) {
    const auto frames = sched::make_sweep_frames(size, 1);
    for (int n : kThreadWidths) {
      std::uint64_t hash[3] = {0, 0, 0};
      for (int layout = 0; layout < 3; ++layout) {
        dwt::set_host_layout(kLayouts[layout]);
        dwt::SimdLineFilter filter{HostConfig{n}};
        hash[layout] = hash_image(
            fusion::fuse_frames(frames[0].visible, frames[0].thermal, {}, filter));
        EXPECT_EQ(hash[layout], hash[0])
            << size.width << "x" << size.height << " threads=" << n
            << " layout=" << dwt::host_layout_name(kLayouts[layout]);
      }
    }
  }
}

// MAC statistics across layouts: the fused plan's accounting replay must
// emit exactly the staged sequence (same line counts, same per-line shapes).
TEST(HostLayoutIdentity, FilterStatsInvariantAcrossLayouts) {
  LayoutRestore restore;
  const auto frames = sched::make_sweep_frames({33, 25}, 1);
  dwt::FilterStats ref;
  for (int layout = 0; layout < 3; ++layout) {
    dwt::set_host_layout(kLayouts[layout]);
    dwt::ScalarLineFilter filter{HostConfig{2}};
    (void)fusion::fuse_frames(frames[0].visible, frames[0].thermal, {}, filter);
    if (layout == 0) {
      ref = filter.stats();
      continue;
    }
    EXPECT_EQ(filter.stats().analysis_macs, ref.analysis_macs);
    EXPECT_EQ(filter.stats().synthesis_macs, ref.synthesis_macs);
    EXPECT_EQ(filter.stats().analysis_lines, ref.analysis_lines);
    EXPECT_EQ(filter.stats().synthesis_lines, ref.synthesis_lines);
  }
}

// Every modeled backend's probe totals must not notice the layout either:
// all three paths replay the same canonical account_*()/barrier() sequence.
TEST(HostLayoutIdentity, ModeledProbeInvariantAcrossLayouts) {
  LayoutRestore restore;
  const sched::FrameSize size{64, 48};
  const sched::BackendKind kinds[] = {
      sched::BackendKind::kArm, sched::BackendKind::kNeon,
      sched::BackendKind::kFpga, sched::BackendKind::kFpgaBatched,
      sched::BackendKind::kAdaptive};
  for (const sched::BackendKind kind : kinds) {
    sched::ProbeResult res[3];
    for (int layout = 0; layout < 3; ++layout) {
      dwt::set_host_layout(kLayouts[layout]);
      sched::RunConfig run;
      const auto b = sched::make_backend(kind, run);
      res[layout] = sched::probe_backend(*b, size, 2);
      EXPECT_TRUE(res[layout].total == res[0].total)
          << sched::backend_name(kind) << " layout="
          << dwt::host_layout_name(kLayouts[layout]);
      EXPECT_TRUE(res[layout].forward == res[0].forward)
          << sched::backend_name(kind);
      EXPECT_TRUE(res[layout].inverse == res[0].inverse)
          << sched::backend_name(kind);
      EXPECT_EQ(res[layout].energy_mj, res[0].energy_mj)
          << sched::backend_name(kind);
    }
  }
}

// The event-queue pipeline schedule too: makespan/ledger/energy must be
// bit-identical across all three layouts.
TEST(HostLayoutIdentity, PipelinedRunInvariantAcrossLayouts) {
  LayoutRestore restore;
  const auto stream = sched::make_sweep_frames({33, 25}, 3);
  sched::PipelineRunResult res[3];
  for (int layout = 0; layout < 3; ++layout) {
    dwt::set_host_layout(kLayouts[layout]);
    sched::RunConfig rc;
    sched::BatchedFpgaBackend backend(rc);
    res[layout] = sched::run_pipelined(backend, stream);
    if (layout == 0) continue;
    EXPECT_TRUE(res[layout].makespan == res[0].makespan)
        << dwt::host_layout_name(kLayouts[layout]);
    EXPECT_TRUE(res[layout].serial_total == res[0].serial_total);
    EXPECT_TRUE(res[layout].ps_busy == res[0].ps_busy);
    EXPECT_TRUE(res[layout].pl_busy == res[0].pl_busy);
    EXPECT_EQ(res[layout].energy_mj, res[0].energy_mj);
    EXPECT_EQ(res[layout].energy_gated_mj, res[0].energy_gated_mj);
  }
}

// --- bit-identity across kernel flavours -------------------------------------

struct KernelSetRestore {
  ~KernelSetRestore() { simd::set_active_kernels("simd"); }
};

// The dispatch default ("simd") is bit-identical to "scalar", so switching
// flavours must not move a single fused bit either.
TEST(HostParallelIdentity, ScalarAndSimdDispatchFuseIdentically) {
  KernelSetRestore restore;
  const auto frames = sched::make_sweep_frames({40, 40}, 1);
  ASSERT_TRUE(simd::set_active_kernels("scalar"));
  dwt::SimdLineFilter f_scalar{HostConfig{2}};
  const std::uint64_t h_scalar = hash_image(
      fusion::fuse_frames(frames[0].visible, frames[0].thermal, {}, f_scalar));
  ASSERT_TRUE(simd::set_active_kernels("simd"));
  dwt::SimdLineFilter f_simd{HostConfig{2}};
  const std::uint64_t h_simd = hash_image(
      fusion::fuse_frames(frames[0].visible, frames[0].thermal, {}, f_simd));
  EXPECT_EQ(h_scalar, h_simd);
}

}  // namespace
