#include "src/fusion/fused_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/arena.h"
#include "src/common/thread_pool.h"
#include "src/simd/kernels.h"

namespace vf::dwt {
namespace {

using image::ImageF;

constexpr int kLineBlock = simd::kMaxLinesPerCall;

// Input bytes a column-pass strip targets (see strip_): small frames run as
// one strip; large ones walk the planes in strips that stay cache-resident
// while every column block of the strip consumes them. At level 0 a strip
// is a stripe of run()'s walk, whose window, bands and synthesized rows
// must share the L2 with it: a quarter of a 2 MiB L2.
constexpr int kStripBytes = 512 * 1024;

// Blocks of kLineBlock columns covering n columns (the last may be partial).
int blocks_of(int n) { return (n + kLineBlock - 1) / kLineBlock; }

// Copies rows x nb floats between planes of strides src_stride/dst_stride.
void copy_rows(const float* src, int src_stride, int rows, int nb, float* dst,
               int dst_stride) {
  for (int i = 0; i < rows; ++i) {
    const float* s = src + static_cast<size_t>(i) * src_stride;
    float* d = dst + static_cast<size_t>(i) * dst_stride;
    if (nb == kLineBlock) {
      std::memcpy(d, s, kLineBlock * sizeof(float));
    } else {
      for (int l = 0; l < nb; ++l) d[l] = s[l];
    }
  }
}

// One complex pair's planes of one level, all hr x bs (bs: FusionPlan::bs_):
// the lowpass ll[frame][side] and, above the deepest level, the fused
// subbands fused[sb][side] (sb in {0=lh, 1=hl, 2=hh}); at the deepest level
// both frames' candidate bands band[sb][side][frame] and their magnitudes
// mag[sb][frame] instead, so the select rule can run fused into the inverse
// synthesis read.
struct LevelPlanes {
  float* ll[2][2] = {};
  float* fused[3][2] = {};
  float* band[3][2][2] = {};
  float* mag[3][2] = {};
};

LevelPlanes alloc_level(ArenaScope& scope, size_t plane, bool deep) {
  LevelPlanes lp;
  for (auto& frame : lp.ll) {
    for (float*& ll : frame) ll = scope.alloc(plane);
  }
  for (int sb = 0; sb < 3; ++sb) {
    for (int s = 0; s < 2; ++s) {
      if (!deep) {
        lp.fused[sb][s] = scope.alloc(plane);
        continue;
      }
      for (float*& band : lp.band[sb][s]) band = scope.alloc(plane);
    }
    if (deep) {
      for (float*& mag : lp.mag[sb]) mag = scope.alloc(plane);
    }
  }
  return lp;
}

// A level's row-pass output as the column pass reads it:
// plane[frame][side][0=lo, 1=hi], hc wide, whose row 0 is extended row w0
// (dwt::detail::LevelDims).
struct RowPlanes {
  float* plane[2][2][2];
  int w0;

  template <class Fn>
  void each(Fn fn) const {
    for (int x = 0; x < 2; ++x) {
      for (int s = 0; s < 2; ++s) {
        for (int h = 0; h < 2; ++h) fn(x, s, h, plane[x][s][h]);
      }
    }
  }
};

int mod(int a, int n) { return (a % n + n) % n; }

}  // namespace

FusionPlan::FusionPlan(int rows, int cols, const TransformConfig& config)
    : t_(rows, cols, config, "FusionPlan") {
  const int D = t_.levels();
  for (int level = 0; level < D; ++level) {
    const detail::LevelDims& d = t_.dims[level];
    bs_.push_back(level + 1 < D ? t_.dims[level + 1].cp : d.hc);
    // Output rows per strip of the column pass: a strip's input rows of the
    // eight extended planes (2 frames x lo/hi x re/im) stay near kStripBytes.
    // At level 0 a strip is also the stripe run() walks the frame in; when
    // there is more than one, its height is kept a multiple of half a row
    // slab, so the inverse's stripes of 2 * strip rows are whole slabs.
    const int per_row = 8 * d.hc * static_cast<int>(sizeof(float));
    const int taps = t_.banks[0][level].taps();
    int strip = std::clamp((kStripBytes / per_row - taps) / 2, 1, d.hr);
    if (level == 0 && strip < d.hr) {
      constexpr int kHalfSlab = kLineBlock / 2;
      strip = std::min(d.hr, std::max(kHalfSlab, strip - strip % kHalfSlab));
    }
    strip_.push_back(strip);
  }
}

ImageF FusionPlan::run(const ImageF& a, const ImageF& b, LineFilter& f) const {
  // Always-on: the CMake default is Release, where an assert would let a
  // frame smaller than the plan read out of bounds.
  const int rows = t_.dims[0].r, cols = t_.dims[0].c;
  if (a.rows() != rows || a.cols() != cols || b.rows() != rows ||
      b.cols() != cols) {
    std::fprintf(stderr, "fatal: FusionPlan::run(%dx%d, %dx%d) on a %dx%d plan\n",
                 a.rows(), a.cols(), b.rows(), b.cols(), rows, cols);
    std::abort();
  }

  const simd::KernelSet& k = f.kernels();
  ThreadPool* pool = f.pool();
  const int D = t_.levels();
  const int DL = D - 1;  // deepest level index
  const detail::LevelDims& d0 = t_.dims[0];
  const int row_tree[2] = {0, 1};
  const float* const frame_src[2][2] = {{a.data(), a.data()}, {b.data(), b.data()}};

  // Column pass of level L for pairs [p0, p0 + npairs) over output rows
  // [i0, i1), lane-interleaved: one work item is one pair x one strip of
  // output rows x one block of kLineBlock columns, read straight from the
  // row-pass planes `in`. Analysis + magnitude fused per frame, then — above
  // the deepest level — the select rule while the block's bands are hot.
  auto column_pass = [&](int L, int p0, int npairs, const LevelPlanes* out,
                         const RowPlanes& in, int i0, int i1) {
    const detail::LevelDims& dl = t_.dims[L];
    const int bs = bs_[L];
    const int strip = strip_[L];
    const bool deep = L == DL;
    const int nblocks = blocks_of(dl.hc);
    const int nstrips = (i1 - i0 + strip - 1) / strip;
    const size_t blk_size = static_cast<size_t>(strip) * kLineBlock;
    auto items = [&](int w0, int w1) {
      ArenaScope scratch;
      // Block-local planes (strip x kLineBlock) for the in-cache select
      // at shallow levels: blk[frame][sb][0=re, 1=im, 2=mag], the selected
      // pair sel[0=re, 1=im], and the block's lowpass rows on their way into
      // ll.
      float* blk[2][3][3] = {};
      float* sel[2] = {};
      float* ll_blk[2] = {};
      if (!deep) {
        for (int x = 0; x < 2; ++x) {
          for (int sb = 0; sb < 3; ++sb) {
            for (int j = 0; j < 3; ++j) blk[x][sb][j] = scratch.alloc(blk_size);
          }
        }
        for (int s = 0; s < 2; ++s) {
          sel[s] = scratch.alloc(blk_size);
          ll_blk[s] = scratch.alloc(blk_size);
        }
      }
      for (int w = w0; w < w1; ++w) {
        const int pi = w / (nstrips * nblocks);
        const int p = p0 + pi;
        const LevelPlanes& o_planes = out[pi];
        const int col_tree[2] = {p, 1 - p};
        const FilterBank& cb0 = t_.banks[col_tree[0]][L];
        const FilterBank& cb1 = t_.banks[col_tree[1]][L];
        const int i = i0 + (w / nblocks) % nstrips * strip;
        const int ns = std::min(strip, i1 - i);
        const int c = (w % nblocks) * kLineBlock;
        const int nb = std::min(kLineBlock, dl.hc - c);
        const size_t o = static_cast<size_t>(i) * bs + c;
        const size_t in0 =
            static_cast<size_t>(dl.skip[col_tree[0]] + 2 * i - in.w0) * dl.hc + c;
        const size_t in1 =
            static_cast<size_t>(dl.skip[col_tree[1]] + 2 * i - in.w0) * dl.hc + c;
        for (int x = 0; x < 2; ++x) {
          // Row-lo columns -> ll (both sides) + lh (+ |lh|), then row-hi
          // columns -> hl + hh (+ magnitudes of both).
          const float* const lo[2] = {in.plane[x][0][0], in.plane[x][1][0]};
          const float* const hi[2] = {in.plane[x][0][1], in.plane[x][1][1]};
          if (deep) {
            const auto& band = o_planes.band;
            const auto& mag = o_planes.mag;
            k.analyze_mag_ml(lo[0] + in0, lo[1] + in1, dl.hc, nb, ns, cb0.lp.data(),
                             cb0.hp.data(), cb1.lp.data(), cb1.hp.data(),
                             cb0.taps(), o_planes.ll[x][0] + o, band[0][0][x] + o,
                             o_planes.ll[x][1] + o, band[0][1][x] + o, nullptr,
                             mag[0][x] + o, bs);
            k.analyze_mag_ml(hi[0] + in0, hi[1] + in1, dl.hc, nb, ns, cb0.lp.data(),
                             cb0.hp.data(), cb1.lp.data(), cb1.hp.data(),
                             cb0.taps(), band[1][0][x] + o, band[2][0][x] + o,
                             band[1][1][x] + o, band[2][1][x] + o, mag[1][x] + o,
                             mag[2][x] + o, bs);
            continue;
          }
          k.analyze_mag_ml(lo[0] + in0, lo[1] + in1, dl.hc, nb, ns, cb0.lp.data(),
                           cb0.hp.data(), cb1.lp.data(), cb1.hp.data(), cb0.taps(),
                           ll_blk[0], blk[x][0][0], ll_blk[1], blk[x][0][1],
                           nullptr, blk[x][0][2], kLineBlock);
          k.analyze_mag_ml(hi[0] + in0, hi[1] + in1, dl.hc, nb, ns, cb0.lp.data(),
                           cb0.hp.data(), cb1.lp.data(), cb1.hp.data(), cb0.taps(),
                           blk[x][1][0], blk[x][2][0], blk[x][1][1], blk[x][2][1],
                           blk[x][1][2], blk[x][2][2], kLineBlock);
          for (int s = 0; s < 2; ++s) {
            copy_rows(ll_blk[s], kLineBlock, ns, nb, o_planes.ll[x][s] + o, bs);
          }
        }
        if (deep) continue;
        // The select is element-wise, so a full block selects as one line of
        // ns * kLineBlock samples; a partial one row by row.
        const bool full = nb == kLineBlock;
        const int lines = full ? 1 : ns;
        const int len = full ? ns * kLineBlock : nb;
        for (int sb = 0; sb < 3; ++sb) {
          k.select_ml(blk[0][sb][0], blk[0][sb][1], blk[1][sb][0], blk[1][sb][1],
                      blk[0][sb][2], blk[1][sb][2], lines, len, kLineBlock, sel[0],
                      sel[1], kLineBlock);
          for (int s = 0; s < 2; ++s) {
            copy_rows(sel[s], kLineBlock, ns, nb, o_planes.fused[sb][s] + o, bs);
          }
        }
      }
    };
    parallel_chunks(pool, 0, npairs * nstrips * nblocks, items);
  };

  ArenaScope outer;

  // Both pairs' level-0 planes: the stripe walk below fills them together.
  LevelPlanes level0[2];
  for (LevelPlanes& lp : level0) {
    lp = alloc_level(outer, static_cast<size_t>(d0.hr) * bs_[0], DL == 0);
  }

  // --- forward level 0: a stripe walk ----------------------------------------
  // Stripe after stripe of strip_[0] output rows, the level-0 row passes
  // (shared by both pairs: in both, side s is row tree s, so one pass per
  // frame covers all eight (frame x tree) level-0 row transforms of a staged
  // fusion) produce only the extended rows the stripe's column pass reads,
  // into a window of extended rows [w0, w1) that slides down the frame. The
  // column pass of both pairs then consumes the window while it is hot.
  // Extended row j holds padded row (j - lead) mod rp. The rows above lead
  // wrap to the bottom slabs, which a prologue runs first (`tail`); the rows
  // below lead + rp wrap to the top ones, of which the walk keeps a copy
  // (`head`). A frame of one stripe keeps every row in the window in place,
  // so tail and head are window rows, and the walk slides nothing.
  {
    ArenaScope walk;
    const int taps = t_.banks[0][0].taps();
    const int skip_lo = std::min(d0.skip[0], d0.skip[1]);
    const int skip_hi = std::max(d0.skip[0], d0.skip[1]);
    const int strip = strip_[0];
    const bool one = strip >= d0.hr;
    // One past the last extended row a column call may read: analyze_mag_ml
    // reads 2 * out_len + taps samples per lane (kernels.h).
    const int last = 2 * d0.hr + skip_hi + taps;
    const int tail_x0 = (d0.rp - (d0.lead - skip_lo)) / kLineBlock * kLineBlock;
    const int head_n = std::min(std::max(0, last - d0.lead - d0.rp), tail_x0);
    const int cap = one ? std::max(last, d0.lead + d0.rp) - skip_lo
                        : 2 * strip + skip_hi - skip_lo + taps + kLineBlock - 1;
    const size_t hc = static_cast<size_t>(d0.hc);
    RowPlanes win = {};
    win.w0 = skip_lo;
    RowPlanes tail = {}, head = {};  // padded rows [tail_x0, rp) and [0, head_n)
    win.each([&](int x, int s, int h, float*) {
      float* const plane = win.plane[x][s][h] = walk.alloc(cap * hc);
      if (tail_x0 == d0.rp) {
        // No bottom slab is read above lead.
      } else if (one) {
        tail.plane[x][s][h] = plane + (d0.lead + tail_x0 - win.w0) * hc;
      } else {
        tail.plane[x][s][h] = walk.alloc((d0.rp - tail_x0) * hc);
      }
      head.plane[x][s][h] =
          one ? plane + (d0.lead - win.w0) * hc : walk.alloc(head_n * hc);
    });
    // Slabs [s0, s1) of both frames' row passes into rows starting at `at`
    // of the planes of `dst`.
    auto run_slabs = [&](int s0, int s1, const RowPlanes& dst, size_t at) {
      if (s0 >= s1) return;
      for (int x = 0; x < 2; ++x) {
        const auto& p = dst.plane[x];
        float* const lo[2] = {p[0][0] + at, p[1][0] + at};
        float* const hi[2] = {p[0][1] + at, p[1][1] + at};
        detail::forward_row_slabs(t_, 0, frame_src[x], cols, row_tree, k, pool,
                                  s0, s1, lo, hi);
      }
    };
    run_slabs(tail_x0 / kLineBlock, blocks_of(d0.rp), tail, 0);

    int w1 = win.w0;  // the window holds extended rows [win.w0, w1)
    for (int i0 = 0; i0 < d0.hr; i0 += strip) {
      const int ns = std::min(strip, d0.hr - i0);
      const int j0 = 2 * i0 + skip_lo;
      const int j1 = 2 * (i0 + ns) + skip_hi + taps;
      if (j0 > win.w0) {
        // Slide: keep the rows this stripe shares with the last one.
        const int keep = std::max(0, w1 - j0);
        win.each([&](int, int, int, float* plane) {
          std::memmove(plane, plane + (j0 - win.w0) * hc, keep * hc * sizeof(float));
        });
        win.w0 = j0;
        w1 = std::max(w1, j0);
      }
      while (w1 < j1) {
        const int x = w1 - d0.lead;  // the padded row extended row w1 holds
        if (x >= 0 && x < tail_x0) {
          // Rows not computed yet: whole slabs, from x (a slab start).
          const int s0 = x / kLineBlock;
          const int s1 = std::min(tail_x0 / kLineBlock, blocks_of(j1 - d0.lead));
          run_slabs(s0, s1, win, (w1 - win.w0) * hc);
          const int x1 = s1 * kLineBlock;
          const int keep = std::min(x1, head_n) - x;
          if (!one && keep > 0) {
            win.each([&](int fx, int s, int h, float* plane) {
              std::memcpy(head.plane[fx][s][h] + x * hc,
                          plane + (d0.lead + x - win.w0) * hc, keep * hc * sizeof(float));
            });
          }
          w1 = d0.lead + x1;
          continue;
        }
        // A periodic-extension row, or a bottom-slab row: a copy of the
        // padded row it holds (in place when that is this very row).
        const int xs = mod(x, d0.rp);
        win.each([&](int fx, int s, int h, float* plane) {
          const float* src = xs >= tail_x0 ? tail.plane[fx][s][h] + (xs - tail_x0) * hc
                                           : head.plane[fx][s][h] + xs * hc;
          float* dst = plane + (w1 - win.w0) * hc;
          if (src != dst) std::memcpy(dst, src, hc * sizeof(float));
        });
        ++w1;
      }
      column_pass(0, 0, 2, level0, win, i0, i0 + ns);
    }
  }

  // Lowpass residue fusion (not time-accounted, matching average()).
  auto fuse_residue = [&](const LevelPlanes& deepest, float* const ll_fused[2]) {
    const detail::LevelDims& dd = t_.dims[DL];
    for (int s = 0; s < 2; ++s) {
      k.average(deepest.ll[0][s], deepest.ll[1][s], dd.hr * bs_[DL], ll_fused[s]);
    }
  };

  // The four trees' reconstructions combine in the staged tree order,
  // ((r0 + r1) + r2) + r3, then x 0.25f, folded into the level-0 row
  // synthesis: tree 0 (pair 0) is stored in `out`, tree 3 (pair 0) in
  // `recon3`, tree 1 (pair 1) adds onto out, and tree 2 (pair 1) finishes.
  ImageF out(rows, cols);
  float* recon3 = outer.alloc(static_cast<size_t>(rows) * cols);
  float* const tree_dst[4] = {out.data(), out.data(), out.data(), recon3};
  const detail::RowSink tree_sink[4] = {{detail::RowSink::kStore, nullptr},
                                        {detail::RowSink::kAdd, nullptr},
                                        {detail::RowSink::kFinish, recon3},
                                        {detail::RowSink::kStore, nullptr}};

  // Level-0 synthesis of one tree (column tree col_tree, row tree
  // row_tree) into dst through `sink`, in stripes of strip_[0] output pairs:
  // each stripe's columns are synthesized into a window of rows and row-
  // synthesized while hot. A window of m pairs starting at pair m0 is one
  // select_synth_ml call of m + ceil(T/2) pairs (T = synth_taps()) whose
  // periodic extension starts at stream sample 2 * m0 - S (S = the bank's
  // synthesis_offset): offset 0 from that sample's band row when it is
  // even, -1 from the band row before it when it is odd. Its first m pairs
  // read exactly the samples the whole-column call reads for pairs
  // [m0, m0 + m); the rest are discarded. Only a call whose band rows wrap
  // past either end of the column gathers them into scratch; a stripe that
  // covers the whole column is the whole-column call itself.
  auto synthesize_level0 = [&](int col_tree, int row_tree, const float* ll_in,
                               const LevelPlanes& lp, float* dst,
                               const detail::RowSink& sink) {
    ArenaScope scope;
    const FilterBank& colb = t_.banks[col_tree][0];
    const int bs = bs_[0];
    const int sp = strip_[0];
    const int over = (colb.synth_taps() + 1) / 2;
    const int max_pairs = sp < d0.hr ? sp + over : d0.hr;
    const size_t hc = static_cast<size_t>(d0.hc);
    float* wlo = scope.alloc(2 * static_cast<size_t>(max_pairs) * hc);
    float* whi = scope.alloc(2 * static_cast<size_t>(max_pairs) * hc);
    const float* const bands[4] = {ll_in, lp.fused[0][row_tree], lp.fused[1][row_tree],
                                   lp.fused[2][row_tree]};
    float* gather[4] = {};
    for (int m0 = 0; m0 < d0.hr; m0 += sp) {
      const int m = std::min(sp, d0.hr - m0);
      int pairs = d0.hr, offset = colb.synthesis_offset, r0 = 0;
      if (m < d0.hr) {
        const int g0 = 2 * m0 - colb.synthesis_offset;
        pairs = m + over;
        offset = -mod(g0, 2);
        r0 = (g0 + offset) / 2;
      }
      const float* in[4];
      if (r0 >= 0 && r0 + pairs <= d0.hr) {
        for (int q = 0; q < 4; ++q) in[q] = bands[q] + static_cast<size_t>(r0) * bs;
      } else {
        for (int q = 0; q < 4; ++q) {
          if (!gather[q]) gather[q] = scope.alloc(static_cast<size_t>(max_pairs) * bs);
          for (int i = 0; i < pairs; ++i) {
            std::memcpy(gather[q] + static_cast<size_t>(i) * bs,
                        bands[q] + static_cast<size_t>(mod(r0 + i, d0.hr)) * bs,
                        hc * sizeof(float));
          }
          in[q] = gather[q];
        }
      }
      detail::synthesis_col_window(t_, 0, col_tree, in[0], in[1], in[2], in[3], bs,
                                   pairs, offset, k, pool, wlo, whi);
      const int x0 = 2 * m0;
      const size_t at = static_cast<size_t>(x0) * cols;
      detail::RowSink stripe_sink = sink;
      if (sink.other) stripe_sink.other = sink.other + at;
      detail::synthesis_row_pass(t_, 0, row_tree, wlo, whi,
                                 std::min(x0 + 2 * m, rows) - x0, k, pool, dst + at,
                                 cols, stripe_sink);
    }
  };

  for (int p = 0; p < 2; ++p) {
    ArenaScope pair;
    const int col_tree[2] = {p, 1 - p};
    std::vector<LevelPlanes> planes(static_cast<size_t>(D));
    planes[0] = level0[p];

    // --- forward levels 1.. : both frames interleaved, band-by-band -------
    for (int L = 1; L < D; ++L) {
      const detail::LevelDims& dl = t_.dims[L];
      planes[static_cast<size_t>(L)] =
          alloc_level(pair, static_cast<size_t>(dl.hr) * bs_[L], L == DL);
      ArenaScope level;
      RowPlanes in = {};
      in.each([&](int x, int s, int h, float*) {
        in.plane[x][s][h] = level.alloc(static_cast<size_t>(dl.ext_rows) * dl.hc);
      });
      for (int x = 0; x < 2; ++x) {
        const LevelPlanes& prev = planes[static_cast<size_t>(L - 1)];
        const float* const cur[2] = {prev.ll[x][0], prev.ll[x][1]};
        const auto& p = in.plane[x];
        float* const lo[2] = {p[0][0], p[1][0]};
        float* const hi[2] = {p[0][1], p[1][1]};
        detail::forward_row_pass(t_, L, cur, bs_[L - 1], row_tree, k, pool, lo, hi);
      }
      column_pass(L, p, 1, &planes[static_cast<size_t>(L)], in, 0, dl.hr);
    }
    const LevelPlanes& deepest = planes[static_cast<size_t>(DL)];
    const size_t qd = static_cast<size_t>(t_.dims[DL].hr) * bs_[DL];
    float* const ll_fused[2] = {pair.alloc(qd), pair.alloc(qd)};
    fuse_residue(deepest, ll_fused);

    // --- inverse: fused bands stream straight into synthesis ------------
    for (int s = 0; s < 2; ++s) {
      ArenaScope side;
      const int tree = detail::kPairTree[p][s];
      // This level's lowpass input: the fused residue at the deepest level,
      // above it the previous (deeper) level's reconstruction, written at
      // stride bs — which is that reconstruction's padded width.
      const float* ll_in = ll_fused[s];
      for (int L = DL; L >= 0; --L) {
        const detail::LevelDims& dl = t_.dims[L];
        const int bs = bs_[L];
        const FilterBank& colb = t_.banks[col_tree[s]][L];
        if (L == 0 && DL > 0) {
          synthesize_level0(col_tree[s], s, ll_in, planes[0], tree_dst[tree],
                            tree_sink[tree]);
          break;
        }
        // Row synthesis output, cropped to this level's input dims: the
        // tree's plane at level 0 (here only when it is also the deepest),
        // above it this level's reconstruction, which outlives the level's
        // half planes.
        float* rec = tree_dst[tree];
        int rec_stride = cols;
        detail::RowSink sink = tree_sink[tree];
        if (L > 0) {
          rec_stride = bs_[L - 1];
          rec = side.alloc(static_cast<size_t>(dl.r) * rec_stride);
          sink = {};
        }
        ArenaScope halves;
        const size_t half = static_cast<size_t>(dl.rp) * dl.hc;
        float* rowlo = halves.alloc(half);
        float* rowhi = halves.alloc(half);

        // Column synthesis into the row-major rowlo/rowhi planes; at the
        // deepest level the select rule runs fused into the synthesis read
        // of the candidate bands.
        if (L == DL) {
          const auto& band = deepest.band;
          const auto& mag = deepest.mag;
          parallel_chunks(pool, 0, blocks_of(dl.hc), [&](int b0, int b1) {
            for (int bi = b0; bi < b1; ++bi) {
              const int c = bi * kLineBlock;
              const int nb = std::min(kLineBlock, dl.hc - c);
              k.select_synth_ml(ll_in + c, nullptr, nullptr, nullptr,
                                band[0][s][0] + c, band[0][s][1] + c, mag[0][0] + c,
                                mag[0][1] + c, bs, nb, dl.hr, colb.ca.data(),
                                colb.cb.data(), colb.synth_taps(),
                                colb.synthesis_offset, rowlo + c, dl.hc);
              k.select_synth_ml(band[1][s][0] + c, band[1][s][1] + c, mag[1][0] + c,
                                mag[1][1] + c, band[2][s][0] + c, band[2][s][1] + c,
                                mag[2][0] + c, mag[2][1] + c, bs, nb, dl.hr,
                                colb.ca.data(), colb.cb.data(), colb.synth_taps(),
                                colb.synthesis_offset, rowhi + c, dl.hc);
            }
          });
        } else {
          const LevelPlanes& lp = planes[static_cast<size_t>(L)];
          detail::synthesis_col_pass(t_, L, col_tree[s], ll_in, lp.fused[0][s],
                                     lp.fused[1][s], lp.fused[2][s], bs, k, pool,
                                     rowlo, rowhi);
        }

        detail::synthesis_row_pass(t_, L, s, rowlo, rowhi, dl.r, k, pool, rec,
                                   rec_stride, sink);
        ll_in = rec;
      }
    }
  }  // pair scope
  return out;
}

void FusionPlan::account(LineFilter& f, const StageHooks& hooks) const {
  // In the staged transforms' canonical order.
  if (hooks.before_forward) hooks.before_forward();
  for (int x = 0; x < 2; ++x) {
    for (int t = 0; t < 4; ++t) detail::account_forward_tree(t_, t >> 1, t & 1, f);
  }
  if (hooks.before_fusion) hooks.before_fusion();
  for (int p = 0; p < 2; ++p) {
    for (const detail::LevelDims& d : t_.dims) {
      for (int sb = 0; sb < 3; ++sb) {
        f.account_magnitude(d.hr * d.hc);
        f.account_magnitude(d.hr * d.hc);
        f.account_select(d.hr * d.hc);
      }
    }
  }
  if (hooks.before_inverse) hooks.before_inverse();
  for (int t = 0; t < 4; ++t) detail::account_inverse_tree(t_, t >> 1, t & 1, f);
}

FusionPlan::Traffic FusionPlan::estimate_traffic() const {
  Traffic t;
  const int D = t_.levels();
  const int DL = D - 1;
  for (int L = 0; L < D; ++L) {
    const detail::LevelDims& d = t_.dims[L];
    const double P = static_cast<double>(d.rp) * d.cp;  // padded plane elems
    const double Q = P / 4.0;                           // one band plane
    const double rc = static_cast<double>(d.r) * d.c;
    const int row_taps = t_.banks[0][L].taps();
    const int col_taps = row_taps;
    const int row_staps = t_.banks[0][L].synth_taps();
    const int col_staps = row_staps;

    // FLOPs are layout-independent: 2 per MAC over 8 forward and 4 inverse
    // tree-level transforms, plus the fusion rule (4 per magnitude element,
    // 1 per select, 2 per residue average).
    t.flops += 8.0 * (P * 2.0 * row_taps + P * 2.0 * col_taps);
    t.flops += 4.0 * (P * 2.0 * col_staps + P * 2.0 * row_staps);
    t.flops += 2.0 * 3.0 * (2.0 * 4.0 * Q + Q);
    if (L == DL) t.flops += 4.0 * 2.0 * Q;

    // Staged (transposing transforms): per tree-level, forward = row pass
    // (r+w) + transpose of both half-planes (r+w) + column pass (r+w) +
    // transpose of the four quarter planes back (r+w) = 8P element moves;
    // x8 trees. Inverse mirrors it with 4 transposes of quarter/half planes
    // = 8P; x4 trees.
    // Fusion: per band, two magnitude passes (2r+1w each over Q) and one
    // select (6r+2w over Q); x3 bands x2 pairs; + residue average x4 trees.
    double staged = 8.0 * 8.0 * P + 4.0 * 8.0 * P;
    staged += 2.0 * 3.0 * (2.0 * 3.0 * Q + 8.0 * Q);
    if (L == DL) staged += 4.0 * 3.0 * Q;
    t.staged_bytes += 4.0 * staged;

    // Fused, as run() runs: no plane transposes (the column passes read the
    // row-major planes in place, the row passes transpose 8-row slabs in
    // cache). Per pair, a level's bands are 4 ll + 6 fused planes (10Q), or
    // at the deepest level 4 ll + 12 candidates + 6 magnitudes (22Q).
    //   level 0: the stripe walk reads both frames (2 rc) and writes both
    //            pairs' bands; its window of extended rows stays in cache.
    //   L > 0:   per pair, the row pass reads the 4 ll planes of the level
    //            above (4 rc) and writes the 8 extended planes (4P), which
    //            the column pass reads (4P) before it writes the bands.
    //   deepest: the residue average, 2 x (2r+1w over Q) per pair.
    //   inverse: per tree, the column synthesis reads ll + 3 fused bands
    //            (4Q), or ll + 12 candidates and magnitudes at the deepest
    //            level (13Q). Above level 0 (and at a deepest level 0) it
    //            writes rowlo/rowhi (P), which the row synthesis reads (P);
    //            at a shallow level 0 they stay in the stripe window. The
    //            row synthesis writes the level's reconstruction (rc) above
    //            level 0; at level 0 the folded four-tree combine moves 7 rc
    //            in all: trees 0 and 3 write theirs, tree 1 reads and writes
    //            tree 0's plane, tree 2 reads it and tree 3's and writes it.
    const double bands = L == DL ? 22.0 * Q : 10.0 * Q;
    double fused = L == 0 ? 2.0 * rc + 2.0 * bands
                          : 2.0 * (4.0 * rc + 4.0 * P + 4.0 * P + bands);
    if (L == DL) fused += 2.0 * 6.0 * Q;
    const double synth_in = L == DL ? 13.0 * Q : 4.0 * Q;
    const double halves = L == 0 && L != DL ? 0.0 : 2.0 * P;
    fused += 4.0 * (synth_in + halves) + (L == 0 ? 7.0 * rc : 4.0 * rc);
    t.fused_bytes += 4.0 * fused;
  }
  return t;
}

}  // namespace vf::dwt
