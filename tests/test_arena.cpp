// Arena mechanics plus the zero-allocation guard for the transform hot
// loops: after a warm-up run, a full multi-frame pipelined fusion must not
// create a single new arena block (src/common/arena.h documents the
// contract; this file is the enforcement).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/arena.h"
#include "src/sched/adaptive.h"
#include "src/sched/pipeline.h"

namespace {

using namespace vf;

// --- mechanics ---------------------------------------------------------------

TEST(Arena, AllocIsCacheLineAligned) {
  Arena a;
  for (std::size_t n : {1u, 3u, 16u, 17u, 1000u, 100000u}) {
    float* p = a.alloc(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << "n=" << n;
  }
}

TEST(Arena, ScopeRewindReusesMemoryWithoutNewBlocks) {
  Arena a;
  (void)a.alloc(1);  // force the first block so the loop below is steady state
  const long long blocks = Arena::total_block_allocations();
  const std::size_t reserved = a.bytes_reserved();
  float* first = nullptr;
  for (int i = 0; i < 100; ++i) {
    ArenaScope scope(a);
    float* p = scope.alloc(1024);
    if (i == 0) {
      first = p;
    } else {
      EXPECT_EQ(p, first) << i;  // same bump position every iteration
    }
  }
  EXPECT_EQ(Arena::total_block_allocations(), blocks);
  EXPECT_EQ(a.bytes_reserved(), reserved);
}

TEST(Arena, ScopesNest) {
  Arena a;
  ArenaScope outer(a);
  float* p1 = outer.alloc(64);
  p1[0] = 1.0f;
  float* inner_ptr = nullptr;
  {
    ArenaScope inner(a);
    inner_ptr = inner.alloc(64);
    inner_ptr[0] = 2.0f;
    EXPECT_NE(inner_ptr, p1);
  }
  // The inner scope's space is reclaimed; the outer allocation is intact.
  float* p2 = outer.alloc(64);
  EXPECT_EQ(p2, inner_ptr);
  EXPECT_EQ(p1[0], 1.0f);
}

TEST(Arena, GrowthReusesLaterReservedBlocks) {
  Arena a;
  Arena::Mark empty = a.mark();
  // Warm up with a sequence that spans several blocks.
  (void)a.alloc(1);
  (void)a.alloc(1 << 15);
  (void)a.alloc(1 << 17);
  const long long blocks = Arena::total_block_allocations();
  const std::size_t reserved = a.bytes_reserved();
  // Replaying the same pattern — or a smaller one — from a full rewind must
  // not reserve more: grow() walks forward to later reserved blocks.
  for (int i = 0; i < 10; ++i) {
    a.rewind(empty);
    (void)a.alloc(1);
    (void)a.alloc(1 << 15);
    (void)a.alloc(1 << 17);
    a.rewind(empty);
    (void)a.alloc(1 << 12);
    (void)a.alloc(1 << 14);
    (void)a.alloc(1 << 16);
  }
  EXPECT_EQ(Arena::total_block_allocations(), blocks);
  EXPECT_EQ(a.bytes_reserved(), reserved);
}

TEST(Arena, ThreadArenaIsStable) {
  Arena& a = thread_arena();
  Arena& b = thread_arena();
  EXPECT_EQ(&a, &b);
}

// --- zero-allocation guard ---------------------------------------------------

// After one warm-up pass has reserved every block the transform needs, a
// full multi-frame pipelined run — forward + inverse DT-CWT, fusion rule,
// extension fills, tiled transposes — must perform zero arena block
// allocations. A regression here means some hot loop went back to heap
// scratch. 640x64 walks its level 0 in two stripes (window, tail and head
// buffers, wrapped synthesis windows).
TEST(ArenaZeroAlloc, SteadyStatePipelineAllocatesNothing) {
  for (const sched::FrameSize size : {sched::FrameSize{40, 40},
                                      sched::FrameSize{88, 72},
                                      sched::FrameSize{640, 64}}) {
    const auto stream = sched::make_sweep_frames(size, 6);
    sched::RunConfig rc;
    {
      sched::BatchedFpgaBackend warmup(rc);
      (void)sched::run_pipelined(warmup, stream);
    }
    const long long before = Arena::total_block_allocations();
    sched::BatchedFpgaBackend backend(rc);
    const sched::PipelineRunResult run = sched::run_pipelined(backend, stream);
    EXPECT_GT(run.makespan.sec(), 0.0);
    EXPECT_EQ(Arena::total_block_allocations(), before)
        << size.width << "x" << size.height;
  }
}

}  // namespace
