// Scalar reference DT-CWT fusion: the oracle every host path, kernel flavour
// and thread width must match bit for bit.
//
// Deliberately the plainest form of the algorithm: banks from
// detail::bank_for_level, per-sample modulo periodic extension, float MACs
// in the scalar kernels' tap order, edge-replicating pad to even dims and
// crop back, max-magnitude select, lowpass average, and the four trees'
// reconstructions summed in tree order and scaled by 0.25f. No arena, no
// transposes, no multi-line or lane-interleaved kernels, no threads.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/fusion/dwt_fusion.h"

namespace vf::oracle {

using image::ImageF;
using Line = std::vector<float>;

inline int wrap(int k, int n) { return ((k % n) + n) % n; }

// lo[i] = sum_t lp[t] * x[(2i + t - E) mod n], hi likewise with hp.
inline void analyze(const dwt::FilterBank& b, const Line& x, Line* lo, Line* hi) {
  const int n = static_cast<int>(x.size());
  lo->assign(n / 2, 0.0f);
  hi->assign(n / 2, 0.0f);
  for (int i = 0; i < n / 2; ++i) {
    for (int t = 0; t < b.taps(); ++t) {
      const float v = x[wrap(2 * i + t - b.analysis_offset, n)];
      (*lo)[i] += b.lp[t] * v;
      (*hi)[i] += b.hp[t] * v;
    }
  }
}

// Over u = (lo[0], hi[0], lo[1], ...): y[2m] = sum_t ca[t] * u[(2m + t - S)
// mod n], y[2m + 1] likewise with cb.
inline Line synthesize(const dwt::FilterBank& b, const Line& lo, const Line& hi) {
  const int n = 2 * static_cast<int>(lo.size());
  Line y(n, 0.0f);
  for (int m = 0; m < n / 2; ++m) {
    for (int t = 0; t < b.synth_taps(); ++t) {
      const int s = wrap(2 * m + t - b.synthesis_offset, n);
      const float v = (s & 1) ? hi[s / 2] : lo[s / 2];
      y[2 * m] += b.ca[t] * v;
      y[2 * m + 1] += b.cb[t] * v;
    }
  }
  return y;
}

inline Line row(const ImageF& img, int r) {
  return Line(img.row(r), img.row(r) + img.cols());
}
inline Line column(const ImageF& img, int c) {
  Line v(img.rows());
  for (int r = 0; r < img.rows(); ++r) v[r] = img(r, c);
  return v;
}

inline const ImageF& band(const dwt::LevelBands& lv, int sb) {
  return sb == 0 ? lv.lh : sb == 1 ? lv.hl : lv.hh;
}
inline ImageF& band(dwt::LevelBands& lv, int sb) {
  return sb == 0 ? lv.lh : sb == 1 ? lv.hl : lv.hh;
}

inline dwt::TreePyramid forward_tree(const ImageF& img, const dwt::TransformConfig& config,
                                     int row_tree, int col_tree) {
  dwt::TreePyramid pyr;
  ImageF cur = img;
  for (int level = 0; level < config.levels; ++level) {
    const dwt::FilterBank rb = dwt::detail::bank_for_level(config, level, row_tree);
    const dwt::FilterBank cb = dwt::detail::bank_for_level(config, level, col_tree);
    const int rp = cur.rows() + (cur.rows() & 1), cp = cur.cols() + (cur.cols() & 1);
    ImageF rowlo(rp, cp / 2), rowhi(rp, cp / 2);
    Line x(cp), lo, hi;
    for (int r = 0; r < rp; ++r) {
      const int sr = std::min(r, cur.rows() - 1);
      for (int c = 0; c < cp; ++c) x[c] = cur(sr, std::min(c, cur.cols() - 1));
      analyze(rb, x, &lo, &hi);
      std::copy(lo.begin(), lo.end(), rowlo.row(r));
      std::copy(hi.begin(), hi.end(), rowhi.row(r));
    }
    dwt::LevelBands bands;
    bands.in_rows = cur.rows();
    bands.in_cols = cur.cols();
    ImageF ll(rp / 2, cp / 2);
    bands.lh = bands.hl = bands.hh = ll;
    for (int c = 0; c < cp / 2; ++c) {
      analyze(cb, column(rowlo, c), &lo, &hi);
      for (int r = 0; r < rp / 2; ++r) ll(r, c) = lo[r], bands.lh(r, c) = hi[r];
      analyze(cb, column(rowhi, c), &lo, &hi);
      for (int r = 0; r < rp / 2; ++r) bands.hl(r, c) = lo[r], bands.hh(r, c) = hi[r];
    }
    pyr.levels.push_back(std::move(bands));
    cur = std::move(ll);
  }
  pyr.ll = std::move(cur);
  return pyr;
}

inline ImageF inverse_tree(const dwt::TreePyramid& pyr, const dwt::TransformConfig& config,
                           int row_tree, int col_tree) {
  ImageF cur = pyr.ll;
  for (int level = static_cast<int>(pyr.levels.size()) - 1; level >= 0; --level) {
    const dwt::FilterBank rb = dwt::detail::bank_for_level(config, level, row_tree);
    const dwt::FilterBank cb = dwt::detail::bank_for_level(config, level, col_tree);
    const dwt::LevelBands& bands = pyr.levels[level];
    ImageF rowlo(2 * cur.rows(), cur.cols()), rowhi(2 * cur.rows(), cur.cols());
    for (int c = 0; c < cur.cols(); ++c) {
      const Line lo = synthesize(cb, column(cur, c), column(bands.lh, c));
      const Line hi = synthesize(cb, column(bands.hl, c), column(bands.hh, c));
      for (int r = 0; r < rowlo.rows(); ++r) rowlo(r, c) = lo[r], rowhi(r, c) = hi[r];
    }
    ImageF out(bands.in_rows, bands.in_cols);
    for (int r = 0; r < bands.in_rows; ++r) {
      const Line y = synthesize(rb, row(rowlo, r), row(rowhi, r));
      std::copy(y.begin(), y.begin() + bands.in_cols, out.row(r));
    }
    cur = std::move(out);
  }
  return cur;
}

inline dwt::DtcwtPyramid forward_dtcwt(const ImageF& img, const dwt::TransformConfig& config) {
  dwt::DtcwtPyramid pyr;
  for (int t = 0; t < 4; ++t) pyr.tree[t] = forward_tree(img, config, t >> 1, t & 1);
  return pyr;
}

// Trees in the order AA, AB, BA, BB, summed in that order.
inline ImageF inverse_dtcwt(const dwt::DtcwtPyramid& pyr, const dwt::TransformConfig& config) {
  ImageF acc = inverse_tree(pyr.tree[0], config, 0, 0);
  for (int t = 1; t < 4; ++t) {
    const ImageF rec = inverse_tree(pyr.tree[t], config, t >> 1, t & 1);
    for (std::size_t i = 0; i < acc.size(); ++i) acc.data()[i] += rec.data()[i];
  }
  for (std::size_t i = 0; i < acc.size(); ++i) acc.data()[i] *= 0.25f;
  return acc;
}

// Max-magnitude select of subband pair (a_re + j a_im, b_re + j b_im) into
// (re, im); null imaginary parts mean real coefficients (the DWT baseline).
inline void select(const ImageF& a_re, const ImageF* a_im, const ImageF& b_re,
                   const ImageF* b_im, ImageF* re, ImageF* im) {
  for (std::size_t i = 0; i < a_re.size(); ++i) {
    const float ar = a_re.data()[i], ai = a_im ? a_im->data()[i] : 0.0f;
    const float br = b_re.data()[i], bi = b_im ? b_im->data()[i] : 0.0f;
    const bool take_a = std::sqrt(ar * ar + ai * ai) >= std::sqrt(br * br + bi * bi);
    re->data()[i] = take_a ? ar : br;
    if (im) im->data()[i] = take_a ? ai : bi;
  }
}

inline void average(const ImageF& a, const ImageF& b, ImageF* out) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    out->data()[i] = 0.5f * (a.data()[i] + b.data()[i]);
  }
}

// DT-CWT max-magnitude fusion: complex subbands pair trees (AA, BB), (AB, BA).
inline ImageF fuse(const ImageF& a, const ImageF& b, const dwt::TransformConfig& config) {
  const dwt::DtcwtPyramid pa = forward_dtcwt(a, config), pb = forward_dtcwt(b, config);
  dwt::DtcwtPyramid out = pa;
  for (const auto& [re, im] : {std::pair{0, 3}, std::pair{1, 2}}) {
    for (int lv = 0; lv < config.levels; ++lv) {
      for (int sb = 0; sb < 3; ++sb) {
        select(band(pa.tree[re].levels[lv], sb), &band(pa.tree[im].levels[lv], sb),
               band(pb.tree[re].levels[lv], sb), &band(pb.tree[im].levels[lv], sb),
               &band(out.tree[re].levels[lv], sb), &band(out.tree[im].levels[lv], sb));
      }
    }
  }
  for (int t = 0; t < 4; ++t) average(pa.tree[t].ll, pb.tree[t].ll, &out.tree[t].ll);
  return inverse_dtcwt(out, config);
}

// Single-tree DWT baseline: the same rule on real coefficients.
inline ImageF fuse_dwt(const ImageF& a, const ImageF& b, const dwt::TransformConfig& config) {
  const dwt::TreePyramid pa = forward_tree(a, config, 0, 0);
  const dwt::TreePyramid pb = forward_tree(b, config, 0, 0);
  dwt::TreePyramid out = pa;
  for (int lv = 0; lv < config.levels; ++lv) {
    for (int sb = 0; sb < 3; ++sb) {
      select(band(pa.levels[lv], sb), nullptr, band(pb.levels[lv], sb), nullptr,
             &band(out.levels[lv], sb), nullptr);
    }
  }
  average(pa.ll, pb.ll, &out.ll);
  return inverse_tree(out, config, 0, 0);
}

}  // namespace vf::oracle
