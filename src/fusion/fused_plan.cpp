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
// while every column block of the strip consumes them.
constexpr int kStripBytes = 256 * 1024;

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

}  // namespace

FusionPlan::FusionPlan(int rows, int cols, const TransformConfig& config)
    : t_(rows, cols, config, "FusionPlan") {
  const int D = t_.levels();
  for (int level = 0; level < D; ++level) {
    const detail::LevelDims& d = t_.dims[level];
    bs_.push_back(level + 1 < D ? t_.dims[level + 1].cp : d.hc);
    // Output rows per strip of the column pass: a strip's input rows of the
    // eight extended planes (2 frames x lo/hi x re/im) stay near kStripBytes.
    const int per_row = 8 * d.hc * static_cast<int>(sizeof(float));
    const int taps = t_.banks[0][level].taps();
    strip_.push_back(std::clamp((kStripBytes / per_row - taps) / 2, 1, d.hr));
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

  ArenaScope outer;

  // Level-0 row passes, shared across the two complex pairs: in both pairs
  // side s is row tree s, so one pass per frame (both sides from one slab)
  // covers all eight (frame x tree) level-0 row transforms of a staged
  // fusion. Their outputs are extended row-pass planes.
  const size_t ext0 = static_cast<size_t>(d0.ext_rows) * d0.hc;
  float* row0lo[2][2];
  float* row0hi[2][2];
  for (int x = 0; x < 2; ++x) {
    for (int s = 0; s < 2; ++s) {
      row0lo[x][s] = outer.alloc(ext0);
      row0hi[x][s] = outer.alloc(ext0);
    }
    const float* frame = (x == 0 ? a : b).data();
    const float* const src[2] = {frame, frame};
    detail::forward_row_pass(t_, 0, src, cols, row_tree, k, pool, row0lo[x],
                             row0hi[x]);
  }

  // Per-tree reconstructions, combined at the end in tree order (the staged
  // inverse_dtcwt accumulation order).
  float* recon[4];
  for (int t = 0; t < 4; ++t) {
    recon[t] = outer.alloc(static_cast<size_t>(rows) * cols);
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
      const size_t q = static_cast<size_t>(t_.dims[L].hr) * bs_[L];
      for (int sb = 0; sb < 3; ++sb) {
        for (int s = 0; s < 2; ++s) fused_at(L, sb, s) = pair.alloc(q);
      }
    }
    // At the deepest level both frames' candidate bands and their magnitudes
    // are kept so the select rule can run fused into the inverse synthesis
    // read. deep_band[sb][side][frame]; deep_mag[sb][frame].
    const size_t qd = static_cast<size_t>(t_.dims[DL].hr) * bs_[DL];
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
      const detail::LevelDims& dl = t_.dims[L];
      const int bs = bs_[L];
      const int strip = strip_[L];
      const bool deep = L == DL;

      // Lowpass planes (hr x bs); above the deepest level, the next level's
      // input.
      float* ll[2][2];
      for (int x = 0; x < 2; ++x) {
        for (int s = 0; s < 2; ++s) {
          ll[x][s] = pair.alloc(static_cast<size_t>(dl.hr) * bs);
        }
      }

      {
        ArenaScope level;

        // Row passes (level 0's were shared and precomputed above).
        float* rowlo[2][2];
        float* rowhi[2][2];
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
          detail::forward_row_pass(t_, L, cur[x], bs_[L - 1], row_tree, k, pool,
                                   rowlo[x], rowhi[x]);
        }

        // Column pass, lane-interleaved: one work item is one strip of
        // output rows x one block of kLineBlock columns, read straight from
        // the extended planes. Analysis + magnitude fused per frame, then —
        // above the deepest level — the select rule while the block's bands
        // are hot.
        const FilterBank& cb0 = t_.banks[col_tree[0]][L];
        const FilterBank& cb1 = t_.banks[col_tree[1]][L];
        const int skip0 = dl.skip[col_tree[0]];
        const int skip1 = dl.skip[col_tree[1]];
        const int nblocks = blocks_of(dl.hc);
        const size_t blk_size = static_cast<size_t>(strip) * kLineBlock;
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
            const int i0 = (w / nblocks) * strip;
            const int ns = std::min(strip, dl.hr - i0);
            const int c = (w % nblocks) * kLineBlock;
            const int nb = std::min(kLineBlock, dl.hc - c);
            const size_t o = static_cast<size_t>(i0) * bs + c;
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
                                 deep_mag[0][x] + o, bs);
                k.analyze_mag_ml(rowhi[x][0] + in0, rowhi[x][1] + in1, dl.hc, nb,
                                 ns, cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                                 cb1.hp.data(), cb0.taps(), deep_band[1][0][x] + o,
                                 deep_band[2][0][x] + o, deep_band[1][1][x] + o,
                                 deep_band[2][1][x] + o, deep_mag[1][x] + o,
                                 deep_mag[2][x] + o, bs);
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
                copy_rows(ll_blk[s], kLineBlock, ns, nb, ll[x][s] + o, bs);
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
                copy_rows(sel[s], kLineBlock, ns, nb, fused_at(L, sb, s) + o, bs);
              }
            }
          }
        };
        parallel_chunks(pool, 0, (dl.hr + strip - 1) / strip * nblocks, col_items);
      }  // transient level scope

      for (int x = 0; x < 2; ++x) {
        for (int s = 0; s < 2; ++s) cur[x][s] = ll[x][s];
      }
      if (deep) {
        // Lowpass residue fusion (not time-accounted, matching average()).
        for (int s = 0; s < 2; ++s) {
          k.average(ll[0][s], ll[1][s], static_cast<int>(qd), ll_fused[s]);
        }
      }
    }

    // --- inverse: fused bands stream straight into synthesis ------------
    for (int s = 0; s < 2; ++s) {
      // This level's lowpass input: the fused residue at the deepest level,
      // above it the previous (deeper) level's reconstruction, written at
      // stride bs — which is that reconstruction's padded width.
      const float* ll_in = ll_fused[s];
      for (int L = DL; L >= 0; --L) {
        const detail::LevelDims& dl = t_.dims[L];
        const int bs = bs_[L];
        const size_t half = static_cast<size_t>(dl.rp) * dl.hc;
        float* rowlo = pair.alloc(half);
        float* rowhi = pair.alloc(half);

        // Column synthesis into the row-major rowlo/rowhi planes; at the
        // deepest level the select rule runs fused into the synthesis read
        // of the candidate bands.
        if (L == DL) {
          const FilterBank& colb = t_.banks[col_tree[s]][L];
          parallel_chunks(pool, 0, blocks_of(dl.hc), [&](int b0, int b1) {
            for (int bi = b0; bi < b1; ++bi) {
              const int c = bi * kLineBlock;
              const int nb = std::min(kLineBlock, dl.hc - c);
              k.select_synth_ml(ll_in + c, nullptr, nullptr, nullptr,
                                deep_band[0][s][0] + c, deep_band[0][s][1] + c,
                                deep_mag[0][0] + c, deep_mag[0][1] + c, bs, nb,
                                dl.hr, colb.ca.data(), colb.cb.data(),
                                colb.synth_taps(), colb.synthesis_offset,
                                rowlo + c, dl.hc);
              k.select_synth_ml(deep_band[1][s][0] + c, deep_band[1][s][1] + c,
                                deep_mag[1][0] + c, deep_mag[1][1] + c,
                                deep_band[2][s][0] + c, deep_band[2][s][1] + c,
                                deep_mag[2][0] + c, deep_mag[2][1] + c, bs, nb,
                                dl.hr, colb.ca.data(), colb.cb.data(),
                                colb.synth_taps(), colb.synthesis_offset,
                                rowhi + c, dl.hc);
            }
          });
        } else {
          detail::synthesis_col_pass(t_, L, col_tree[s], ll_in, fused_at(L, 0, s),
                                     fused_at(L, 1, s), fused_at(L, 2, s), bs, k,
                                     pool, rowlo, rowhi);
        }

        // Row synthesis, cropped to this level's input dims: at level 0
        // straight into the tree's reconstruction.
        float* rec = recon[detail::kPairTree[p][s]];
        int rec_stride = cols;
        if (L > 0) {
          rec_stride = bs_[L - 1];
          rec = pair.alloc(static_cast<size_t>(dl.r) * rec_stride);
        }
        detail::synthesis_row_pass(t_, L, s, rowlo, rowhi, k, pool, rec, rec_stride);
        ll_in = rec;
      }
    }
  }  // pair scope

  // Combine the four trees in the staged accumulation order:
  // recs[0] += recs[1..3], then x 0.25f.
  ImageF out(rows, cols);
  float* acc = out.data();
  const size_t n = out.size();
  std::memcpy(acc, recon[0], n * sizeof(float));
  for (int t = 1; t < 4; ++t) {
    const float* r = recon[t];
    for (size_t i = 0; i < n; ++i) acc[i] += r[i];
  }
  for (size_t i = 0; i < n; ++i) acc[i] *= 0.25f;
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
