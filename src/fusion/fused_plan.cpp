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

// Input bytes a column-pass strip targets (see LevelDims::strip): small
// frames run as one strip; large ones walk the planes in strips that stay
// cache-resident while every column block of the strip consumes them.
constexpr int kStripBytes = 256 * 1024;

// tree(pair, side): trees (0,3) form the first complex pair, (1,2) the
// second; within a pair the re side is row-tree A and the im side row-tree B
// (see fuse.cpp). col_tree(pair, side) = side == 0 ? pair : 1 - pair.
constexpr int kPairRe[2] = {0, 1};
constexpr int kPairIm[2] = {3, 2};

// Edge-replicating pad of an rows x cols frame into rp x cp (rp, cp each at
// most one larger) — the same pad_even semantics as the tiled transforms.
void pad_raw(const float* src, int rows, int cols, int rp, int cp, float* out) {
  for (int r = 0; r < rp; ++r) {
    const float* s = src + static_cast<size_t>(r < rows ? r : rows - 1) * cols;
    float* d = out + static_cast<size_t>(r) * cp;
    std::memcpy(d, s, static_cast<size_t>(cols) * sizeof(float));
    if (cp > cols) d[cols] = s[cols - 1];
  }
}

// Blocks of kLineBlock columns covering n columns (the last may be partial).
int blocks_of(int n) { return (n + kLineBlock - 1) / kLineBlock; }

// Pads the r x c top-left of an rp x cp plane (stride cp, rp/cp each at most
// one larger) in place by edge replication — pad_raw's semantics without the
// copy.
void pad_in_place(float* plane, int r, int c, int rp, int cp) {
  if (cp > c) {
    for (int i = 0; i < r; ++i) {
      float* row = plane + static_cast<size_t>(i) * cp;
      row[c] = row[c - 1];
    }
  }
  if (rp > r) {
    std::memcpy(plane + static_cast<size_t>(r) * cp,
                plane + static_cast<size_t>(r - 1) * cp,
                static_cast<size_t>(cp) * sizeof(float));
  }
}

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

// Completes an extended plane in place: rows [lead, lead + n) hold n rows
// of `width` floats; every other row j of the ext_rows is row
// (j - lead) mod n of those — the periodic extension of all its columns at
// once, so a filter walking the rows reads it at the plane stride with no
// gather.
void extend_rows(float* plane, int width, int lead, int n, int ext_rows) {
  const size_t bytes = static_cast<size_t>(width) * sizeof(float);
  for (int j = 0; j < ext_rows; ++j) {
    if (j >= lead && j < lead + n) continue;
    const int src = lead + ((j - lead) % n + n) % n;
    std::memcpy(plane + static_cast<size_t>(j) * width,
                plane + static_cast<size_t>(src) * width, bytes);
  }
}

// Where two banks' periodic extensions ext_t[k] = x[(k - E_t) mod n] of one
// n-row extended plane start: bank t reads ext_t[k] as plane row
// k + skip[t] of a plane whose rows [lead, lead + n) hold x. lead = the
// largest E_t mod n keeps every skip non-negative; `rows` covers both
// banks' n + taps samples.
struct PeriodicLayout {
  int lead;
  int skip[2];
  int rows;
};

PeriodicLayout periodic_layout(int e0, int e1, int n, int taps) {
  const int e[2] = {(e0 % n + n) % n, (e1 % n + n) % n};
  PeriodicLayout w;
  w.lead = std::max(e[0], e[1]);
  for (int t = 0; t < 2; ++t) w.skip[t] = w.lead - e[t];
  w.rows = std::max(n + taps + std::max(w.skip[0], w.skip[1]), w.lead + n);
  return w;
}

// Forward row passes of both sides of a level (side s: source src[s], row
// bank bank[s]) into extended row-pass planes (ext_rows x hc), over slabs
// of kLineBlock rows in the lane layout — lane l of a slab is image row
// r + l. The source rows are transposed into the slab and its periodic
// extension completed as whole rows; one analyze_mag_ml call then filters
// both sides (re = side 0, im = side 1, no magnitudes), reading one shared
// slab when the sides share a source (level 0). The four lane outputs are
// transposed into rows [lead, lead + rp), and extend_rows completes the
// periodic extension around them.
void forward_row_pass(const float* const src[2], int rp, int cp, int hc,
                      int lead, int ext_rows, const FilterBank* const bank[2],
                      const simd::KernelSet& k, ThreadPool* pool,
                      float* const lo[2], float* const hi[2]) {
  const int taps = bank[0]->taps();
  const PeriodicLayout w = periodic_layout(
      bank[0]->analysis_offset, bank[1]->analysis_offset, cp, taps);
  const int sources = src[0] == src[1] ? 1 : 2;
  float* const dst[4] = {lo[0], hi[0], lo[1], hi[1]};
  auto block = [&](int b0, int b1) {
    ArenaScope scratch;
    float* slab[2] = {};
    for (int s = 0; s < sources; ++s) {
      slab[s] = scratch.alloc(static_cast<size_t>(w.rows) * kLineBlock);
    }
    if (sources == 1) slab[1] = slab[0];
    float* out[4] = {};
    for (float*& o : out) o = scratch.alloc(static_cast<size_t>(hc) * kLineBlock);
    for (int b = b0; b < b1; ++b) {
      const int r = b * kLineBlock;
      const int nb = std::min(kLineBlock, rp - r);
      for (int s = 0; s < sources; ++s) {
        simd::transpose_f32(src[s] + static_cast<size_t>(r) * cp, nb, cp, cp,
                            slab[s] + static_cast<size_t>(w.lead) * kLineBlock,
                            kLineBlock);
        extend_rows(slab[s], kLineBlock, w.lead, cp, w.rows);
      }
      k.analyze_mag_ml(slab[0] + static_cast<size_t>(w.skip[0]) * kLineBlock,
                       slab[1] + static_cast<size_t>(w.skip[1]) * kLineBlock,
                       kLineBlock, nb, hc, bank[0]->lp.data(), bank[0]->hp.data(),
                       bank[1]->lp.data(), bank[1]->hp.data(), taps, out[0],
                       out[1], out[2], out[3], nullptr, nullptr, kLineBlock);
      for (int q = 0; q < 4; ++q) {
        simd::transpose_f32(out[q], hc, nb, kLineBlock,
                            dst[q] + static_cast<size_t>(lead + r) * hc, hc);
      }
    }
  };
  parallel_chunks(pool, 0, blocks_of(rp), block);
  for (float* plane : dst) extend_rows(plane, hc, lead, rp, ext_rows);
}

// Row synthesis of the rp rows of rowlo/rowhi (rp x hc) into `padded`
// (rp x 2 hc), over the same kLineBlock-row slabs: both inputs are
// transposed into lane slabs, select_synth_ml with every *_b null builds
// each lane's wrap fill and runs the interleaved synthesis, and the
// 2 hc x kLineBlock result is transposed back.
void synthesis_row_pass(const float* rowlo, const float* rowhi, int rp, int hc,
                        const FilterBank& bank, const simd::KernelSet& k,
                        ThreadPool* pool, float* padded) {
  const int cp = 2 * hc;
  auto block = [&](int b0, int b1) {
    ArenaScope scratch;
    float* lo = scratch.alloc(static_cast<size_t>(hc) * kLineBlock);
    float* hi = scratch.alloc(static_cast<size_t>(hc) * kLineBlock);
    float* out = scratch.alloc(static_cast<size_t>(cp) * kLineBlock);
    for (int b = b0; b < b1; ++b) {
      const int r = b * kLineBlock;
      const int nb = std::min(kLineBlock, rp - r);
      simd::transpose_f32(rowlo + static_cast<size_t>(r) * hc, nb, hc, hc, lo,
                          kLineBlock);
      simd::transpose_f32(rowhi + static_cast<size_t>(r) * hc, nb, hc, hc, hi,
                          kLineBlock);
      k.select_synth_ml(lo, nullptr, nullptr, nullptr, hi, nullptr, nullptr,
                        nullptr, kLineBlock, nb, hc, bank.ca.data(),
                        bank.cb.data(), bank.synth_taps(), bank.synthesis_offset,
                        out, kLineBlock);
      simd::transpose_f32(out, cp, nb, kLineBlock,
                          padded + static_cast<size_t>(r) * cp, cp);
    }
  };
  parallel_chunks(pool, 0, blocks_of(rp), block);
}

}  // namespace

FusionPlan::FusionPlan(int rows, int cols, const TransformConfig& config)
    : rows_(rows), cols_(cols), config_(config) {
  if (rows < 1 || cols < 1 || config.levels < 1) {
    std::fprintf(stderr, "fatal: FusionPlan(%dx%d, %d levels)\n", rows, cols,
                 config.levels);
    std::abort();
  }
  int r = rows, c = cols;
  dims_.reserve(config.levels);
  for (int level = 0; level < config.levels; ++level) {
    LevelDims d;
    d.r = r;
    d.c = c;
    d.rp = r + (r & 1);
    d.cp = c + (c & 1);
    d.hr = d.rp / 2;
    d.hc = d.cp / 2;
    d.bs = d.hc;
    dims_.push_back(d);
    r = d.hr;
    c = d.hc;
  }
  // Band planes above the deepest level take the next level's padded width
  // as their row stride, so the lowpass plane is padded in place and the
  // inverse reads the next level's reconstruction at the bands' stride.
  for (int level = 0; level + 1 < config.levels; ++level) {
    dims_[level].bs = dims_[level + 1].cp;
  }
  for (int tree = 0; tree < 2; ++tree) {
    row_banks_[tree].reserve(config.levels);
    col_banks_[tree].reserve(config.levels);
    for (int level = 0; level < config.levels; ++level) {
      row_banks_[tree].push_back(detail::bank_for_level(config_, level, tree));
      col_banks_[tree].push_back(detail::bank_for_level(config_, level, tree));
    }
  }
  // One lane-interleaved call filters both trees with one tap count (the
  // row passes' analyze_mag_ml, the column passes'), and select_synth_ml
  // interleaves one (ca, cb) pair per call. make_filter_bank guarantees the
  // tree-A and tree-B banks agree on window widths by construction (the
  // level-1 delay shifts both window ends; the q-shift reversal stays inside
  // the same 14-tap window); a config that broke it must not run.
  for (int level = 0; level < config.levels; ++level) {
    for (const std::vector<FilterBank>* banks : {row_banks_, col_banks_}) {
      const FilterBank& a = banks[0][level];
      const FilterBank& b = banks[1][level];
      if (a.taps() != b.taps() || a.synth_taps() != b.synth_taps()) {
        std::fprintf(stderr,
                     "fatal: FusionPlan level %d: tree banks disagree on "
                     "taps (%d, %d) or synth_taps (%d, %d)\n",
                     level, a.taps(), b.taps(), a.synth_taps(), b.synth_taps());
        std::abort();
      }
    }
  }
  // Extended row-pass planes (extend_rows): the column bank of tree t reads
  // its extension ext[k] = x[(k - E_t) mod rp] as plane row k + skip[t].
  for (int level = 0; level < config.levels; ++level) {
    LevelDims& d = dims_[level];
    const int taps = col_banks_[0][level].taps();
    const PeriodicLayout w =
        periodic_layout(col_banks_[0][level].analysis_offset,
                        col_banks_[1][level].analysis_offset, d.rp, taps);
    d.lead = w.lead;
    d.skip[0] = w.skip[0];
    d.skip[1] = w.skip[1];
    d.ext_rows = w.rows;
    // Output rows per strip of the column pass: a strip's input rows of the
    // eight extended planes (2 frames x lo/hi x re/im) stay near kStripBytes.
    const int per_row = 8 * d.hc * static_cast<int>(sizeof(float));
    d.strip = std::clamp((kStripBytes / per_row - taps) / 2, 1, d.hr);
  }
}

ImageF FusionPlan::run(const ImageF& a, const ImageF& b, LineFilter& f,
                       const StageHooks& hooks) const {
  // Always-on: the CMake default is Release, where an assert would let a
  // frame smaller than the plan read out of bounds.
  if (a.rows() != rows_ || a.cols() != cols_ || b.rows() != rows_ ||
      b.cols() != cols_) {
    std::fprintf(stderr, "fatal: FusionPlan::run(%dx%d, %dx%d) on a %dx%d plan\n",
                 a.rows(), a.cols(), b.rows(), b.cols(), rows_, cols_);
    std::abort();
  }

  const simd::KernelSet& k = f.kernels();
  ThreadPool* pool = f.pool();
  const int D = config_.levels;
  const int DL = D - 1;  // deepest level index
  const LevelDims& d0 = dims_[0];

  ArenaScope outer;

  // Padded inputs, shared by every tree of both frames.
  const float* in[2] = {a.data(), b.data()};
  for (int x = 0; x < 2; ++x) {
    if (rows_ != d0.rp || cols_ != d0.cp) {
      float* p = outer.alloc(static_cast<size_t>(d0.rp) * d0.cp);
      pad_raw(in[x], rows_, cols_, d0.rp, d0.cp, p);
      in[x] = p;
    }
  }

  // Level-0 row passes, shared across the two complex pairs: in both pairs
  // the re side is row-tree A and the im side row-tree B, so one pass per
  // frame (both sides from one slab) covers all eight (frame x tree)
  // level-0 row transforms of a staged fusion. Their outputs are extended
  // row-pass planes.
  const size_t ext0 = static_cast<size_t>(d0.ext_rows) * d0.hc;
  const FilterBank* const row_bank0[2] = {&row_banks_[0][0], &row_banks_[1][0]};
  float* row0lo[2][2];
  float* row0hi[2][2];
  for (int x = 0; x < 2; ++x) {
    for (int s = 0; s < 2; ++s) {
      row0lo[x][s] = outer.alloc(ext0);
      row0hi[x][s] = outer.alloc(ext0);
    }
    const float* const src[2] = {in[x], in[x]};
    forward_row_pass(src, d0.rp, d0.cp, d0.hc, d0.lead, d0.ext_rows, row_bank0, k,
                     pool, row0lo[x], row0hi[x]);
  }

  // Per-tree reconstructions, combined at the end in tree order (the staged
  // inverse_dtcwt accumulation order).
  float* recon[4];
  for (int t = 0; t < 4; ++t) {
    recon[t] = outer.alloc(static_cast<size_t>(rows_) * cols_);
  }

  for (int p = 0; p < 2; ++p) {
    ArenaScope pair;
    const int col_tree[2] = {p, 1 - p};

    // Fused band planes for levels above the deepest (hr x bs, row-major).
    // fused_at(L, sb, s): sb in {0=lh, 1=hl, 2=hh}, s = side.
    std::vector<float*> fused_bands(static_cast<size_t>(DL) * 6, nullptr);
    auto fused_at = [&](int L, int sb, int s) -> float*& {
      return fused_bands[(static_cast<size_t>(L) * 3 + sb) * 2 + s];
    };
    for (int L = 0; L < DL; ++L) {
      const size_t q = static_cast<size_t>(dims_[L].hr) * dims_[L].bs;
      for (int sb = 0; sb < 3; ++sb) {
        for (int s = 0; s < 2; ++s) fused_at(L, sb, s) = pair.alloc(q);
      }
    }
    // At the deepest level both frames' candidate bands and their magnitudes
    // are kept so the select rule can run fused into the inverse synthesis
    // read. deep_band[sb][side][frame]; deep_mag[sb][frame].
    const LevelDims& dd = dims_[DL];
    const size_t qd = static_cast<size_t>(dd.hr) * dd.bs;
    float* deep_band[3][2][2];
    float* deep_mag[3][2];
    for (int sb = 0; sb < 3; ++sb) {
      for (int s = 0; s < 2; ++s) {
        for (int x = 0; x < 2; ++x) deep_band[sb][s][x] = pair.alloc(qd);
      }
      for (int x = 0; x < 2; ++x) deep_mag[sb][x] = pair.alloc(qd);
    }
    float* ll_fused[2] = {pair.alloc(qd), pair.alloc(qd)};

    // --- forward: both frames interleaved, band-by-band -----------------
    const float* cur[2][2] = {{nullptr, nullptr}, {nullptr, nullptr}};
    for (int L = 0; L < D; ++L) {
      const LevelDims& dl = dims_[L];
      const bool deep = L == DL;

      // Lowpass planes (hr x bs). Above the deepest level they are the next
      // level's input and get one spare row for its even padding.
      const int ll_rows = deep ? dl.hr : dims_[L + 1].rp;
      float* ll[2][2];
      for (int x = 0; x < 2; ++x) {
        for (int s = 0; s < 2; ++s) {
          ll[x][s] = pair.alloc(static_cast<size_t>(ll_rows) * dl.bs);
        }
      }

      {
        ArenaScope level;

        // Row passes (level 0's were shared and precomputed above).
        float* rowlo[2][2];
        float* rowhi[2][2];
        const FilterBank* const row_bank[2] = {&row_banks_[0][L], &row_banks_[1][L]};
        for (int x = 0; x < 2; ++x) {
          if (L == 0) {
            for (int s = 0; s < 2; ++s) {
              rowlo[x][s] = row0lo[x][s];
              rowhi[x][s] = row0hi[x][s];
            }
            continue;
          }
          for (int s = 0; s < 2; ++s) {
            rowlo[x][s] = level.alloc(static_cast<size_t>(dl.ext_rows) * dl.hc);
            rowhi[x][s] = level.alloc(static_cast<size_t>(dl.ext_rows) * dl.hc);
          }
          forward_row_pass(cur[x], dl.rp, dl.cp, dl.hc, dl.lead, dl.ext_rows,
                           row_bank, k, pool, rowlo[x], rowhi[x]);
        }

        // Column pass, lane-interleaved: one work item is one strip of
        // output rows x one block of kLineBlock columns, read straight from
        // the extended planes. Analysis + magnitude fused per frame, then —
        // above the deepest level — the select rule while the block's bands
        // are hot.
        const FilterBank& cb0 = col_banks_[col_tree[0]][L];
        const FilterBank& cb1 = col_banks_[col_tree[1]][L];
        const int skip0 = dl.skip[col_tree[0]];
        const int skip1 = dl.skip[col_tree[1]];
        const int nblocks = blocks_of(dl.hc);
        const size_t blk_size = static_cast<size_t>(dl.strip) * kLineBlock;
        auto col_items = [&](int w0, int w1) {
          ArenaScope scratch;
          // Block-local planes (strip x kLineBlock) for the in-cache select
          // at shallow levels: blk[frame][sb][0=re, 1=im, 2=mag], the
          // selected pair sel[0=re, 1=im], and the block's lowpass rows on
          // their way into ll.
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
            const int i0 = (w / nblocks) * dl.strip;
            const int ns = std::min(dl.strip, dl.hr - i0);
            const int c = (w % nblocks) * kLineBlock;
            const int nb = std::min(kLineBlock, dl.hc - c);
            const size_t o = static_cast<size_t>(i0) * dl.bs + c;
            const size_t in0 = static_cast<size_t>(skip0 + 2 * i0) * dl.hc + c;
            const size_t in1 = static_cast<size_t>(skip1 + 2 * i0) * dl.hc + c;
            for (int x = 0; x < 2; ++x) {
              // Row-lo columns -> ll (both sides) + lh (+ |lh|), then row-hi
              // columns -> hl + hh (+ magnitudes of both).
              if (deep) {
                k.analyze_mag_ml(rowlo[x][0] + in0, rowlo[x][1] + in1, dl.hc, nb,
                                 ns, cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                                 cb1.hp.data(), cb0.taps(), ll[x][0] + o,
                                 deep_band[0][0][x] + o, ll[x][1] + o,
                                 deep_band[0][1][x] + o, nullptr,
                                 deep_mag[0][x] + o, dl.bs);
                k.analyze_mag_ml(rowhi[x][0] + in0, rowhi[x][1] + in1, dl.hc, nb,
                                 ns, cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                                 cb1.hp.data(), cb0.taps(), deep_band[1][0][x] + o,
                                 deep_band[2][0][x] + o, deep_band[1][1][x] + o,
                                 deep_band[2][1][x] + o, deep_mag[1][x] + o,
                                 deep_mag[2][x] + o, dl.bs);
                continue;
              }
              k.analyze_mag_ml(rowlo[x][0] + in0, rowlo[x][1] + in1, dl.hc, nb, ns,
                               cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                               cb1.hp.data(), cb0.taps(), ll_blk[0], blk[x][0][0],
                               ll_blk[1], blk[x][0][1], nullptr, blk[x][0][2],
                               kLineBlock);
              k.analyze_mag_ml(rowhi[x][0] + in0, rowhi[x][1] + in1, dl.hc, nb, ns,
                               cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                               cb1.hp.data(), cb0.taps(), blk[x][1][0],
                               blk[x][2][0], blk[x][1][1], blk[x][2][1],
                               blk[x][1][2], blk[x][2][2], kLineBlock);
              for (int s = 0; s < 2; ++s) {
                copy_rows(ll_blk[s], kLineBlock, ns, nb, ll[x][s] + o, dl.bs);
              }
            }
            if (deep) continue;
            // The select is element-wise, so a full block selects as one
            // line of ns * kLineBlock samples; a partial one row by row.
            const bool full = nb == kLineBlock;
            const int lines = full ? 1 : ns;
            const int len = full ? ns * kLineBlock : nb;
            for (int sb = 0; sb < 3; ++sb) {
              k.select_ml(blk[0][sb][0], blk[0][sb][1], blk[1][sb][0],
                          blk[1][sb][1], blk[0][sb][2], blk[1][sb][2], lines, len,
                          kLineBlock, sel[0], sel[1], kLineBlock);
              for (int s = 0; s < 2; ++s) {
                copy_rows(sel[s], kLineBlock, ns, nb, fused_at(L, sb, s) + o, dl.bs);
              }
            }
          }
        };
        parallel_chunks(pool, 0, (dl.hr + dl.strip - 1) / dl.strip * nblocks, col_items);
      }  // transient level scope

      if (!deep) {
        const LevelDims& dn = dims_[L + 1];
        for (int x = 0; x < 2; ++x) {
          for (int s = 0; s < 2; ++s) {
            pad_in_place(ll[x][s], dn.r, dn.c, dn.rp, dn.cp);
            cur[x][s] = ll[x][s];
          }
        }
      } else {
        // Lowpass residue fusion (not time-accounted, matching average()).
        for (int s = 0; s < 2; ++s) {
          k.average(ll[0][s], ll[1][s], static_cast<int>(qd), ll_fused[s]);
        }
      }
    }

    // --- inverse: fused bands stream straight into synthesis ------------
    for (int s = 0; s < 2; ++s) {
      // This level's lowpass input: the fused residue at the deepest level,
      // above it the previous (deeper) level's reconstruction, read in place
      // at stride bs — which is that reconstruction's padded width.
      const float* ll_in = ll_fused[s];
      for (int L = DL; L >= 0; --L) {
        const LevelDims& dl = dims_[L];
        const FilterBank& colb = col_banks_[col_tree[s]][L];
        const FilterBank& rowb = row_banks_[s][L];
        const int pairs = dl.hr;  // synthesis pairs per column line
        const size_t half = static_cast<size_t>(dl.rp) * dl.hc;

        float* rowlo = pair.alloc(half);
        float* rowhi = pair.alloc(half);
        float* padded = pair.alloc(static_cast<size_t>(dl.rp) * dl.cp);

        // Column synthesis, lane-interleaved straight into the row-major
        // rowlo/rowhi planes; at the deepest level the select rule runs
        // fused into the synthesis read of the candidate bands.
        auto col_block = [&](int b0, int b1) {
          for (int bi = b0; bi < b1; ++bi) {
            const int c = bi * kLineBlock;
            const int nb = std::min(kLineBlock, dl.hc - c);
            if (L == DL) {
              k.select_synth_ml(ll_in + c, nullptr, nullptr, nullptr,
                                deep_band[0][s][0] + c, deep_band[0][s][1] + c,
                                deep_mag[0][0] + c, deep_mag[0][1] + c, dl.bs, nb,
                                pairs, colb.ca.data(), colb.cb.data(),
                                colb.synth_taps(), colb.synthesis_offset,
                                rowlo + c, dl.hc);
              k.select_synth_ml(deep_band[1][s][0] + c, deep_band[1][s][1] + c,
                                deep_mag[1][0] + c, deep_mag[1][1] + c,
                                deep_band[2][s][0] + c, deep_band[2][s][1] + c,
                                deep_mag[2][0] + c, deep_mag[2][1] + c, dl.bs, nb,
                                pairs, colb.ca.data(), colb.cb.data(),
                                colb.synth_taps(), colb.synthesis_offset,
                                rowhi + c, dl.hc);
            } else {
              k.select_synth_ml(ll_in + c, nullptr, nullptr, nullptr,
                                fused_at(L, 0, s) + c, nullptr, nullptr, nullptr,
                                dl.bs, nb, pairs, colb.ca.data(), colb.cb.data(),
                                colb.synth_taps(), colb.synthesis_offset,
                                rowlo + c, dl.hc);
              k.select_synth_ml(fused_at(L, 1, s) + c, nullptr, nullptr, nullptr,
                                fused_at(L, 2, s) + c, nullptr, nullptr, nullptr,
                                dl.bs, nb, pairs, colb.ca.data(), colb.cb.data(),
                                colb.synth_taps(), colb.synthesis_offset,
                                rowhi + c, dl.hc);
            }
          }
        };
        parallel_chunks(pool, 0, blocks_of(dl.hc), col_block);

        // Row synthesis back to the padded plane of this level.
        synthesis_row_pass(rowlo, rowhi, dl.rp, dl.hc, rowb, k, pool, padded);

        if (L > 0) {
          ll_in = padded;
        } else {
          float* dst = recon[s == 0 ? kPairRe[p] : kPairIm[p]];
          for (int r = 0; r < rows_; ++r) {
            std::memcpy(dst + static_cast<size_t>(r) * cols_,
                        padded + static_cast<size_t>(r) * dl.cp,
                        static_cast<size_t>(cols_) * sizeof(float));
          }
        }
      }
    }
  }  // pair scope

  // Combine the four trees in the staged accumulation order:
  // recs[0] += recs[1..3], then x 0.25f.
  ImageF out(rows_, cols_);
  float* acc = out.data();
  const size_t n = out.size();
  std::memcpy(acc, recon[0], n * sizeof(float));
  for (int t = 1; t < 4; ++t) {
    const float* r = recon[t];
    for (size_t i = 0; i < n; ++i) acc[i] += r[i];
  }
  for (size_t i = 0; i < n; ++i) acc[i] *= 0.25f;

  // --- serial accounting replay, in the staged transforms' canonical order
  if (hooks.before_forward) hooks.before_forward();
  for (int x = 0; x < 2; ++x) {
    for (int t = 0; t < 4; ++t) {
      detail::account_forward_tree(rows_, cols_, config_,
                                   row_banks_[t >> 1].data(),
                                   col_banks_[t & 1].data(), f);
    }
    (void)x;
  }
  if (hooks.before_fusion) hooks.before_fusion();
  for (int p = 0; p < 2; ++p) {
    for (int L = 0; L < D; ++L) {
      const int nb = dims_[L].hr * dims_[L].hc;
      for (int sb = 0; sb < 3; ++sb) {
        f.account_magnitude(nb);
        f.account_magnitude(nb);
        f.account_select(nb);
      }
    }
    (void)p;
  }
  if (hooks.before_inverse) hooks.before_inverse();
  for (int t = 0; t < 4; ++t) {
    detail::account_inverse_tree(rows_, cols_, config_,
                                 row_banks_[t >> 1].data(),
                                 col_banks_[t & 1].data(), f);
  }
  return out;
}

FusionPlan::Traffic FusionPlan::estimate_traffic() const {
  Traffic t;
  const int D = config_.levels;
  const int DL = D - 1;
  for (int L = 0; L < D; ++L) {
    const LevelDims& d = dims_[L];
    const double P = static_cast<double>(d.rp) * d.cp;  // padded plane elems
    const double Q = P / 4.0;                           // one band plane
    const double rc = static_cast<double>(d.r) * d.c;
    const int row_taps = row_banks_[0][L].taps();
    const int col_taps = col_banks_[0][L].taps();
    const int row_staps = row_banks_[0][L].synth_taps();
    const int col_staps = col_banks_[0][L].synth_taps();

    // FLOPs are layout-independent: 2 per MAC over 8 forward and 4 inverse
    // tree-level transforms, plus the fusion rule (4 per magnitude element,
    // 1 per select, 2 per residue average).
    t.flops += 8.0 * (P * 2.0 * row_taps + P * 2.0 * col_taps);
    t.flops += 4.0 * (P * 2.0 * col_staps + P * 2.0 * row_staps);
    t.flops += 2.0 * 3.0 * (2.0 * 4.0 * Q + Q);
    if (L == DL) t.flops += 4.0 * 2.0 * Q;

    // Staged (tiled transforms): per tree-level, forward = row pass (r+w) + transpose
    // of both half-planes (r+w) + column pass (r+w) + transpose of the four
    // quarter planes back (r+w) = 8P element moves; x8 trees. Inverse
    // mirrors it with 4 transposes of quarter/half planes = 8P; x4 trees.
    // Fusion: per band, two magnitude passes (2r+1w each over Q) and one
    // select (6r+2w over Q); x3 bands x2 pairs; + residue average x4 trees.
    double staged = 8.0 * 8.0 * P + 4.0 * 8.0 * P;
    staged += 2.0 * 3.0 * (2.0 * 3.0 * Q + 8.0 * Q);
    if (L == DL) staged += 4.0 * 3.0 * Q;
    t.staged_bytes += 4.0 * staged;

    // Fused: level-0 row passes are shared across pairs (4 instead of 8);
    // the column pass reads the half planes once and writes bands once (the
    // magnitude and shallow-level select happen in cache); the inverse reads
    // each fused band exactly once. Per pair and level:
    //   rows: 4 passes x (r+w) = 8P (only levels > 0; level 0 shared = 4P
    //         across BOTH pairs, charged once below)
    //   cols: read 4 half planes (4P) + write 4 tll (P) + band writes
    //         (6Q shallow / 18Q deep incl. mags)
    //   ll:   shallow transpose back 4 x (r+w over Q) = 2P; deep average
    //         2 x (2r+1w over Q) = 6Q
    //   inv:  col pass reads (Q ll + 3Q bands shallow / Q + 12Q deep) +
    //         writes half planes (P) + row pass (r+w = 2P) + transpose or
    //         crop to next level (2 x rc).
    double fused = L == 0 ? 4.0 * P : 2.0 * 8.0 * P;
    fused += 2.0 * (4.0 * P + P);
    fused += 2.0 * (L == DL ? 18.0 * Q : 6.0 * Q);
    fused += L == DL ? 2.0 * 6.0 * Q : 2.0 * 2.0 * P;
    fused += 2.0 * 2.0 * ((L == DL ? 13.0 * Q : 4.0 * Q) + P + 2.0 * P + 2.0 * rc);
    t.fused_bytes += 4.0 * fused;
  }
  return t;
}

}  // namespace vf::dwt
