#include "src/fusion/dwt_fusion.h"

#include <algorithm>
#include <cstring>

#include "src/common/arena.h"
#include "src/simd/kernels.h"

namespace vf::dwt {

namespace {

// A convolution filter with explicit support: coefficient of z^-n is
// coeffs[n - first] for n in [first, first + size - 1].
struct ConvFilter {
  std::vector<double> coeffs;
  int first = 0;
  int last() const { return first + static_cast<int>(coeffs.size()) - 1; }
  double at(int n) const {
    const int i = n - first;
    return (i >= 0 && i < static_cast<int>(coeffs.size())) ? coeffs[i] : 0.0;
  }
};

struct Prototype {
  ConvFilter h0;      // analysis lowpass
  ConvFilter g0;      // synthesis lowpass (already gain-normalized so that
                      // G0(1)H0(1) + G0(-1)H0(-1) = 2)
  int quadrature_k;   // odd shift in H1(z) = z^-k G0(-z), G1(z) = z^k H0(-z)
};

// Kingsbury q-shift 14-tap orthonormal lowpass (tree A), DC gain sqrt(2).
const double kQshift14[14] = {
    0.00325314, -0.00388321, 0.03466035, -0.03887280, -0.11720389,
    0.27529538, 0.75614564,  0.56881042, 0.01186609,  -0.10671180,
    0.02382538, 0.01702522,  -0.00543948, -0.00455690};

Prototype make_prototype(Wavelet w) {
  Prototype p;
  switch (w) {
    case Wavelet::kLeGall53:
      p.h0 = {{-0.125, 0.25, 0.75, 0.25, -0.125}, -2};
      p.g0 = {{0.5, 1.0, 0.5}, -1};
      p.quadrature_k = 1;
      return p;
    case Wavelet::kCdf97:
      p.h0 = {{0.026748757411, -0.016864118443, -0.078223266529, 0.266864118443,
               0.602949018236, 0.266864118443, -0.078223266529, -0.016864118443,
               0.026748757411},
              -4};
      // Standard CDF 9/7 synthesis lowpass, scaled by 2 for the PR gain
      // convention used here.
      p.g0 = {{2 * -0.045635881557, 2 * -0.028771763114, 2 * 0.295635881557,
               2 * 0.557543526229, 2 * 0.295635881557, 2 * -0.028771763114,
               2 * -0.045635881557},
              -3};
      p.quadrature_k = 1;
      return p;
    case Wavelet::kQshift14A:
    case Wavelet::kQshift14B: {
      ConvFilter h0;
      h0.first = -7;
      h0.coeffs.assign(kQshift14, kQshift14 + 14);
      if (w == Wavelet::kQshift14B) {
        // Tree B is the time reverse of tree A: b[n] = a[-1-n].
        std::vector<double> rev(14);
        for (int i = 0; i < 14; ++i) rev[i] = h0.coeffs[13 - i];
        h0.coeffs = rev;
      }
      p.h0 = h0;
      // Orthonormal: G0(z) = H0(1/z).
      ConvFilter g0;
      g0.first = -p.h0.last();
      g0.coeffs.assign(14, 0.0);
      for (int n = p.h0.first; n <= p.h0.last(); ++n) {
        g0.coeffs[-n - g0.first] = p.h0.at(n);
      }
      p.g0 = g0;
      // k = -1 keeps the quadrature filters inside the same 14-tap window.
      p.quadrature_k = -1;
      return p;
    }
  }
  return p;
}

}  // namespace

const char* wavelet_name(Wavelet w) {
  switch (w) {
    case Wavelet::kLeGall53:
      return "LeGall 5/3";
    case Wavelet::kCdf97:
      return "CDF 9/7";
    case Wavelet::kQshift14A:
      return "q-shift 14 (A)";
    case Wavelet::kQshift14B:
      return "q-shift 14 (B)";
  }
  return "?";
}

FilterBank make_filter_bank(Wavelet w, int delay) {
  Prototype p = make_prototype(w);
  const int k = p.quadrature_k;

  // H1(z) = z^-k G0(-z):  h1[n] = (-1)^(n-k) g0[n-k]
  ConvFilter h1;
  h1.first = p.g0.first + k;
  h1.coeffs.resize(p.g0.coeffs.size());
  for (int n = h1.first; n <= h1.last(); ++n) {
    const int parity = ((n - k) % 2 + 2) % 2;
    h1.coeffs[n - h1.first] = (parity ? -1.0 : 1.0) * p.g0.at(n - k);
  }
  // G1(z) = z^k H0(-z):  g1[n] = (-1)^(n+k) h0[n+k]
  ConvFilter g1;
  g1.first = p.h0.first - k;
  g1.coeffs.resize(p.h0.coeffs.size());
  for (int n = g1.first; n <= g1.last(); ++n) {
    const int parity = ((n + k) % 2 + 2) % 2;
    g1.coeffs[n - g1.first] = (parity ? -1.0 : 1.0) * p.h0.at(n + k);
  }

  // Tree delay: analysis filters gain z^-delay, synthesis filters z^+delay,
  // keeping the product (and thus PR) unchanged.
  ConvFilter h0 = p.h0;
  ConvFilter g0 = p.g0;
  h0.first += delay;
  h1.first += delay;
  g0.first -= delay;
  g1.first -= delay;

  FilterBank bank;
  bank.wavelet = w;

  // Analysis window: lp[t] = h0[E - t], hp[t] = h1[E - t].
  const int e = std::max(h0.last(), h1.last());
  const int nmin = std::min(h0.first, h1.first);
  const int taps = e - nmin + 1;
  bank.analysis_offset = e;
  bank.lp.assign(taps, 0.0f);
  bank.hp.assign(taps, 0.0f);
  for (int t = 0; t < taps; ++t) {
    bank.lp[t] = static_cast<float>(h0.at(e - t));
    bank.hp[t] = static_cast<float>(h1.at(e - t));
  }

  // Synthesis over the interleaved stream. From
  //   y[2m]   = sum_j u[2m-2j] g0[2j]   + u[2m-2j+1] g1[2j]
  //   y[2m+1] = sum_j u[2m-2j] g0[2j+1] + u[2m-2j+1] g1[2j+1]
  // the kernel arrays are (S = max filter end):
  //   g0[n] even -> ca[S-n]      g0[n] odd -> cb[S-n+1]
  //   g1[n] even -> ca[S-n+1]    g1[n] odd -> cb[S-n+2]
  const int s = std::max(g0.last(), g1.last());
  const int smin = std::min(g0.first, g1.first);
  const int width = s - smin + 3;
  bank.synthesis_offset = s;
  bank.ca.assign(width, 0.0f);
  bank.cb.assign(width, 0.0f);
  for (int n = g0.first; n <= g0.last(); ++n) {
    const bool even = ((n % 2) + 2) % 2 == 0;
    if (even) {
      bank.ca[s - n] += static_cast<float>(g0.at(n));
    } else {
      bank.cb[s - n + 1] += static_cast<float>(g0.at(n));
    }
  }
  for (int n = g1.first; n <= g1.last(); ++n) {
    const bool even = ((n % 2) + 2) % 2 == 0;
    if (even) {
      bank.ca[s - n + 1] += static_cast<float>(g1.at(n));
    } else {
      bank.cb[s - n + 2] += static_cast<float>(g1.at(n));
    }
  }
  return bank;
}

int required_slots(const FilterBank& bank) { return bank.taps(); }

const simd::KernelSet& LineFilter::kernels() const { return simd::active_kernels(); }

// --- periodic extension ----------------------------------------------------

namespace {

inline int wrap(int k, int n) {
  k %= n;
  return k < 0 ? k + n : k;
}

}  // namespace

// Periodic extension, ext[k] = x[(k - offset) mod n], in run-based form: the
// analysis fill is a handful of memcpy runs instead of a per-sample modulo,
// and the synthesis fill keeps the wrap as an increment-and-reset counter.
// On the 5..16-tap banks the extension is rebuilt once per line, so this is
// one of the host hot spots.
void detail::fill_synthesis_ext(const FilterBank& bank, const float* lo,
                                const float* hi, int n, float* ext) {
  // Runs of whole (lo[i], hi[i]) pairs up to each wrap of the stream, with
  // a lone hi (or trailing lo) sample where a run starts (ends) mid-pair.
  const int ext_len = n + bank.synth_taps();
  const int pairs = n / 2;
  int src = wrap(-bank.synthesis_offset, n);
  int k = 0;
  while (k < ext_len) {
    const int i = src >> 1;
    const int run = (src & 1) ? 0 : std::min(pairs - i, (ext_len - k) / 2);
    if (run == 0) {
      ext[k++] = (src & 1) ? hi[i] : lo[i];
      if (++src == n) src = 0;
      continue;
    }
    float* e = ext + k;
    for (int r = 0; r < run; ++r) {
      e[2 * r] = lo[i + r];
      e[2 * r + 1] = hi[i + r];
    }
    k += 2 * run;
    src += 2 * run;
    if (src == n) src = 0;
  }
}

void detail::fill_analysis_ext(const FilterBank& bank, const float* x, int n,
                               float* ext) {
  const int ext_len = n + bank.taps();
  int src = wrap(-bank.analysis_offset, n);
  int k = 0;
  while (k < ext_len) {
    const int run = std::min(n - src, ext_len - k);
    std::memcpy(ext + k, x + src, static_cast<std::size_t>(run) * sizeof(float));
    k += run;
    src = 0;
  }
}

// --- 2-D transform ----------------------------------------------------------

HostLayout host_layout() { return HostLayout::kFused; }
const char* host_layout_name(HostLayout) { return "fused"; }

namespace {

using detail::fill_analysis_ext;
using detail::fill_synthesis_ext;
using image::ImageF;

// Lines per multi-line kernel dispatch, and the alignment that keeps every
// arena-resident extension line on its own 64-byte boundary.
constexpr int kLineBlock = simd::kMaxLinesPerCall;
inline int align16(int n) { return (n + 15) & ~15; }

// Pads to even dimensions by replicating the last row/column. Callers must
// check needs_padding() first; this always allocates.
bool needs_padding(const ImageF& img) {
  return ((img.rows() | img.cols()) & 1) != 0;
}

ImageF pad_even(const ImageF& img) {
  const int rp = img.rows() + (img.rows() & 1);
  const int cp = img.cols() + (img.cols() & 1);
  ImageF out(rp, cp);
  for (int r = 0; r < rp; ++r) {
    const int sr = r < img.rows() ? r : img.rows() - 1;
    for (int c = 0; c < cp; ++c) {
      const int sc = c < img.cols() ? c : img.cols() - 1;
      out(r, c) = img(sr, sc);
    }
  }
  return out;
}

struct LevelOut {
  ImageF ll, lh, hl, hh;
};

// One separable analysis level: rows with `row_bank`, columns with
// `col_bank`.
//
// Memory story: every intermediate lives in the per-thread arena. The row
// pass filters blocks of kLineBlock contiguous rows through analyze_ml; the
// column pass transposes the row outputs once (8x8 blocked, simd::
// transpose_f32) so each column is a contiguous line, filters blocks of
// columns through the same multi-line kernel, and transposes the four
// subband planes back. The numeric line loops fan out over the filter's
// pool (lines within a pass are independent); the accounting loops then run
// serially in canonical order, with the barriers at the same positions, so
// the modeled engine sees the same request sequence at any thread count.
LevelOut analyze_level(const ImageF& padded, const FilterBank& row_bank,
                       const FilterBank& col_bank, LineFilter& f) {
  ThreadPool* pool = f.pool();
  const simd::KernelSet& k = f.kernels();
  const int rp = padded.rows();
  const int cp = padded.cols();
  const int hr = rp / 2;
  const int hc = cp / 2;
  const std::size_t plane = static_cast<std::size_t>(rp) * hc;

  // Caller-thread scope: planes shared across pool chunks. Worker-local
  // extension scratch comes from each worker's own arena inside the lambdas.
  ArenaScope planes;
  float* rowlo = planes.alloc(plane);
  float* rowhi = planes.alloc(plane);

  const int row_ext_stride = align16(cp + row_bank.taps());
  auto row_block = [&](int r0, int r1) {
    ArenaScope scratch;
    float* ext = scratch.alloc(static_cast<std::size_t>(kLineBlock) * row_ext_stride);
    for (int r = r0; r < r1; r += kLineBlock) {
      const int nb = std::min(kLineBlock, r1 - r);
      for (int l = 0; l < nb; ++l) {
        fill_analysis_ext(row_bank, padded.row(r + l), cp, ext + l * row_ext_stride);
      }
      k.analyze_ml(ext, row_ext_stride, nb, hc, row_bank.lp.data(),
                   row_bank.hp.data(), row_bank.taps(),
                   rowlo + static_cast<std::size_t>(r) * hc,
                   rowhi + static_cast<std::size_t>(r) * hc, hc);
    }
  };
  parallel_chunks(pool, 0, rp, row_block);
  for (int r = 0; r < rp; ++r) f.account_analyze(hc, row_bank.taps());
  f.barrier();  // the column pass reads the row pass's outputs

  float* tlo = planes.alloc(plane);
  float* thi = planes.alloc(plane);
  simd::transpose_f32(rowlo, rp, hc, hc, tlo, rp);
  simd::transpose_f32(rowhi, rp, hc, hc, thi, rp);
  const std::size_t half_plane = static_cast<std::size_t>(hr) * hc;
  float* tll = planes.alloc(half_plane);
  float* tlh = planes.alloc(half_plane);
  float* thl = planes.alloc(half_plane);
  float* thh = planes.alloc(half_plane);
  const int col_ext_stride = align16(rp + col_bank.taps());
  auto col_block = [&](int c0, int c1) {
    ArenaScope scratch;
    float* ext = scratch.alloc(static_cast<std::size_t>(kLineBlock) * col_ext_stride);
    for (int c = c0; c < c1; c += kLineBlock) {
      const int nb = std::min(kLineBlock, c1 - c);
      for (int l = 0; l < nb; ++l) {
        fill_analysis_ext(col_bank, tlo + static_cast<std::size_t>(c + l) * rp, rp,
                          ext + l * col_ext_stride);
      }
      k.analyze_ml(ext, col_ext_stride, nb, hr, col_bank.lp.data(),
                   col_bank.hp.data(), col_bank.taps(),
                   tll + static_cast<std::size_t>(c) * hr,
                   tlh + static_cast<std::size_t>(c) * hr, hr);
      for (int l = 0; l < nb; ++l) {
        fill_analysis_ext(col_bank, thi + static_cast<std::size_t>(c + l) * rp, rp,
                          ext + l * col_ext_stride);
      }
      k.analyze_ml(ext, col_ext_stride, nb, hr, col_bank.lp.data(),
                   col_bank.hp.data(), col_bank.taps(),
                   thl + static_cast<std::size_t>(c) * hr,
                   thh + static_cast<std::size_t>(c) * hr, hr);
    }
  };
  parallel_chunks(pool, 0, hc, col_block);
  for (int c = 0; c < hc; ++c) {
    f.account_analyze(hr, col_bank.taps());
    f.account_analyze(hr, col_bank.taps());
  }
  LevelOut out;
  out.ll = ImageF(hr, hc);
  out.lh = ImageF(hr, hc);
  out.hl = ImageF(hr, hc);
  out.hh = ImageF(hr, hc);
  simd::transpose_f32(tll, hc, hr, hr, out.ll.data(), hc);
  simd::transpose_f32(tlh, hc, hr, hr, out.lh.data(), hc);
  simd::transpose_f32(thl, hc, hr, hr, out.hl.data(), hc);
  simd::transpose_f32(thh, hc, hr, hr, out.hh.data(), hc);
  f.barrier();  // the next level (or consumer) reads this level's outputs
  return out;
}

// Inverse of analyze_level, cropped to the level's pre-padding size: the
// four subband planes are transposed once so the column-pass lo/hi inputs
// are contiguous rows, blocks of columns run through synthesize_ml into a
// transposed intermediate, and one transpose back feeds the row pass.
ImageF synthesize_level(const ImageF& ll, const LevelBands& bands,
                        const FilterBank& row_bank, const FilterBank& col_bank,
                        LineFilter& f) {
  ThreadPool* pool = f.pool();
  const simd::KernelSet& k = f.kernels();
  const int rp2 = ll.rows();
  const int cp2 = ll.cols();
  const int rp = rp2 * 2;
  const int cp = cp2 * 2;
  const std::size_t sub_plane = static_cast<std::size_t>(rp2) * cp2;
  const std::size_t half_plane = static_cast<std::size_t>(rp) * cp2;

  ArenaScope planes;
  float* tll = planes.alloc(sub_plane);
  float* tlh = planes.alloc(sub_plane);
  float* thl = planes.alloc(sub_plane);
  float* thh = planes.alloc(sub_plane);
  simd::transpose_f32(ll.data(), rp2, cp2, cp2, tll, rp2);
  simd::transpose_f32(bands.lh.data(), rp2, cp2, cp2, tlh, rp2);
  simd::transpose_f32(bands.hl.data(), rp2, cp2, cp2, thl, rp2);
  simd::transpose_f32(bands.hh.data(), rp2, cp2, cp2, thh, rp2);
  float* trowlo = planes.alloc(half_plane);  // cp2 x rp, columns as rows
  float* trowhi = planes.alloc(half_plane);
  const int col_ext_stride = align16(rp + col_bank.synth_taps());
  auto col_block = [&](int c0, int c1) {
    ArenaScope scratch;
    float* ext = scratch.alloc(static_cast<std::size_t>(kLineBlock) * col_ext_stride);
    for (int c = c0; c < c1; c += kLineBlock) {
      const int nb = std::min(kLineBlock, c1 - c);
      for (int l = 0; l < nb; ++l) {
        fill_synthesis_ext(col_bank, tll + static_cast<std::size_t>(c + l) * rp2,
                           tlh + static_cast<std::size_t>(c + l) * rp2, rp,
                           ext + l * col_ext_stride);
      }
      k.synthesize_ml(ext, col_ext_stride, nb, rp / 2, col_bank.ca.data(),
                      col_bank.cb.data(), col_bank.synth_taps(),
                      trowlo + static_cast<std::size_t>(c) * rp, rp);
      for (int l = 0; l < nb; ++l) {
        fill_synthesis_ext(col_bank, thl + static_cast<std::size_t>(c + l) * rp2,
                           thh + static_cast<std::size_t>(c + l) * rp2, rp,
                           ext + l * col_ext_stride);
      }
      k.synthesize_ml(ext, col_ext_stride, nb, rp / 2, col_bank.ca.data(),
                      col_bank.cb.data(), col_bank.synth_taps(),
                      trowhi + static_cast<std::size_t>(c) * rp, rp);
    }
  };
  parallel_chunks(pool, 0, cp2, col_block);
  for (int c = 0; c < cp2; ++c) {
    f.account_synthesize(rp / 2, col_bank.synth_taps());
    f.account_synthesize(rp / 2, col_bank.synth_taps());
  }
  f.barrier();  // the row pass reads the column pass's outputs

  float* rowlo = planes.alloc(half_plane);  // rp x cp2
  float* rowhi = planes.alloc(half_plane);
  simd::transpose_f32(trowlo, cp2, rp, rp, rowlo, cp2);
  simd::transpose_f32(trowhi, cp2, rp, rp, rowhi, cp2);
  ImageF padded(rp, cp);
  const int row_ext_stride = align16(cp + row_bank.synth_taps());
  auto row_block = [&](int r0, int r1) {
    ArenaScope scratch;
    float* ext = scratch.alloc(static_cast<std::size_t>(kLineBlock) * row_ext_stride);
    for (int r = r0; r < r1; r += kLineBlock) {
      const int nb = std::min(kLineBlock, r1 - r);
      for (int l = 0; l < nb; ++l) {
        fill_synthesis_ext(row_bank, rowlo + static_cast<std::size_t>(r + l) * cp2,
                           rowhi + static_cast<std::size_t>(r + l) * cp2, cp,
                           ext + l * row_ext_stride);
      }
      k.synthesize_ml(ext, row_ext_stride, nb, cp / 2, row_bank.ca.data(),
                      row_bank.cb.data(), row_bank.synth_taps(), padded.row(r), cp);
    }
  };
  parallel_chunks(pool, 0, rp, row_block);
  for (int r = 0; r < rp; ++r) {
    f.account_synthesize(cp / 2, row_bank.synth_taps());
  }
  f.barrier();  // the next (shallower) level reads this reconstruction
  if (bands.in_rows == rp && bands.in_cols == cp) return padded;
  ImageF out(bands.in_rows, bands.in_cols);
  for (int r = 0; r < bands.in_rows; ++r) {
    std::memcpy(out.row(r), padded.row(r),
                static_cast<std::size_t>(bands.in_cols) * sizeof(float));
  }
  return out;
}

}  // namespace

namespace detail {

FilterBank bank_for_level(const TransformConfig& config, int level, int tree) {
  const Wavelet base = level == 0 ? config.level1 : config.higher;
  switch (base) {
    // Q-shift pairs: tree B is the time-reversed mate (half-sample delay).
    case Wavelet::kQshift14A:
      return make_filter_bank(tree ? Wavelet::kQshift14B : base);
    case Wavelet::kQshift14B:
      return make_filter_bank(tree ? Wavelet::kQshift14A : base);
    // Biorthogonal banks have no q-shift mate; tree B is the one-sample
    // delayed bank (Kingsbury's level-1 construction) at any level, so a
    // non-q-shift `higher` still yields a consistent dual tree.
    case Wavelet::kLeGall53:
    case Wavelet::kCdf97:
      return make_filter_bank(base, tree ? 1 : 0);
  }
  return make_filter_bank(base, tree ? 1 : 0);
}

// Serial replay of one tree's forward accounting: re-derives the per-level
// line dimensions (they depend only on the input size, never on the data)
// and issues the exact account/barrier sequence the serial combined path
// would have interleaved with the numerics.
void account_forward_tree(int rows, int cols, const TransformConfig& config,
                          int row_tree, int col_tree, LineFilter& f) {
  std::vector<FilterBank> row_banks, col_banks;
  row_banks.reserve(config.levels);
  col_banks.reserve(config.levels);
  for (int level = 0; level < config.levels; ++level) {
    row_banks.push_back(bank_for_level(config, level, row_tree));
    col_banks.push_back(bank_for_level(config, level, col_tree));
  }
  account_forward_tree(rows, cols, config, row_banks.data(), col_banks.data(),
                       f);
}

void account_forward_tree(int rows, int cols, const TransformConfig& config,
                          const FilterBank* row_banks,
                          const FilterBank* col_banks, LineFilter& f) {
  int r = rows, c = cols;
  for (int level = 0; level < config.levels; ++level) {
    const int row_taps = row_banks[level].taps();
    const int col_taps = col_banks[level].taps();
    const int rp = r + (r & 1);
    const int cp = c + (c & 1);
    for (int i = 0; i < rp; ++i) f.account_analyze(cp / 2, row_taps);
    f.barrier();
    for (int i = 0; i < cp / 2; ++i) {
      f.account_analyze(rp / 2, col_taps);
      f.account_analyze(rp / 2, col_taps);
    }
    f.barrier();
    r = rp / 2;
    c = cp / 2;
  }
}

// Dims-based inverse replay for the fused plan, which never materializes a
// TreePyramid: the per-level pre-padding dims are re-derived from the input
// size exactly as forward_tree records them in bands.in_rows/in_cols.
void account_inverse_tree(int rows, int cols, const TransformConfig& config,
                          const FilterBank* row_banks,
                          const FilterBank* col_banks, LineFilter& f) {
  std::vector<int> lr(config.levels + 1), lc(config.levels + 1);
  lr[0] = rows;
  lc[0] = cols;
  for (int level = 0; level < config.levels; ++level) {
    lr[level + 1] = (lr[level] + (lr[level] & 1)) / 2;
    lc[level + 1] = (lc[level] + (lc[level] & 1)) / 2;
  }
  int rp2 = lr[config.levels], cp2 = lc[config.levels];
  for (int level = config.levels - 1; level >= 0; --level) {
    const int col_staps = col_banks[level].synth_taps();
    const int row_staps = row_banks[level].synth_taps();
    for (int i = 0; i < cp2; ++i) {
      f.account_synthesize(rp2, col_staps);
      f.account_synthesize(rp2, col_staps);
    }
    f.barrier();
    for (int i = 0; i < 2 * rp2; ++i) {
      f.account_synthesize(cp2, row_staps);
    }
    f.barrier();
    rp2 = lr[level];
    cp2 = lc[level];
  }
}

}  // namespace detail

namespace {

// Serial replay of one tree's inverse accounting from the pyramid's actual
// level dims (see detail::account_forward_tree); inverse_tree can be handed
// a pyramid whose bands were built elsewhere, so it trusts the pyramid over
// the dims chain.
void account_inverse_tree(const TreePyramid& pyr, const TransformConfig& config,
                          int row_tree, int col_tree, LineFilter& f) {
  int rp2 = pyr.ll.rows(), cp2 = pyr.ll.cols();
  for (int level = static_cast<int>(pyr.levels.size()) - 1; level >= 0; --level) {
    const FilterBank row_bank = detail::bank_for_level(config, level, row_tree);
    const FilterBank col_bank = detail::bank_for_level(config, level, col_tree);
    for (int i = 0; i < cp2; ++i) {
      f.account_synthesize(rp2, col_bank.synth_taps());
      f.account_synthesize(rp2, col_bank.synth_taps());
    }
    f.barrier();
    for (int i = 0; i < 2 * rp2; ++i) {
      f.account_synthesize(cp2, row_bank.synth_taps());
    }
    f.barrier();
    // The next (shallower) level's ll is this level's cropped reconstruction.
    rp2 = pyr.levels[level].in_rows;
    cp2 = pyr.levels[level].in_cols;
  }
}

}  // namespace

TreePyramid forward_tree(const ImageF& img, const TransformConfig& config,
                         int row_tree, int col_tree, LineFilter& filter) {
  TreePyramid pyr;
  // Level 0 reads `img` in place; deeper levels read the previous level's ll
  // (owned). The old path copied the whole input per tree — 4 copies per
  // transform — for no numeric reason.
  const ImageF* current = &img;
  ImageF own;
  for (int level = 0; level < config.levels; ++level) {
    const FilterBank row_bank = detail::bank_for_level(config, level, row_tree);
    const FilterBank col_bank = detail::bank_for_level(config, level, col_tree);
    LevelBands bands;
    bands.in_rows = current->rows();
    bands.in_cols = current->cols();
    const bool pad = needs_padding(*current);
    const ImageF padded_storage = pad ? pad_even(*current) : ImageF();
    const ImageF& padded = pad ? padded_storage : *current;
    LevelOut out = analyze_level(padded, row_bank, col_bank, filter);
    bands.lh = std::move(out.lh);
    bands.hl = std::move(out.hl);
    bands.hh = std::move(out.hh);
    pyr.levels.push_back(std::move(bands));
    own = std::move(out.ll);
    current = &own;
  }
  pyr.ll = config.levels > 0 ? std::move(own) : img;
  return pyr;
}

ImageF inverse_tree(const TreePyramid& pyr, const TransformConfig& config,
                    int row_tree, int col_tree, LineFilter& filter) {
  ImageF current = pyr.ll;
  for (int level = static_cast<int>(pyr.levels.size()) - 1; level >= 0; --level) {
    const FilterBank row_bank = detail::bank_for_level(config, level, row_tree);
    const FilterBank col_bank = detail::bank_for_level(config, level, col_tree);
    current = synthesize_level(current, pyr.levels[level], row_bank, col_bank, filter);
  }
  return current;
}

DtcwtPyramid forward_dtcwt(const ImageF& img, const TransformConfig& config,
                           LineFilter& filter) {
  DtcwtPyramid pyr;
  ThreadPool* pool = filter.pool();
  if (pool == nullptr) {
    for (int t = 0; t < 4; ++t) {
      pyr.tree[t] = forward_tree(img, config, t >> 1, t & 1, filter);
    }
    return pyr;
  }
  // Tree-parallel path: the four trees are fully independent numerically, so
  // each runs through a pure KernelLineFilter on the pool (no per-tree
  // accounting, no nested parallelism). The real filter's accounting —
  // including any accelerator-model state — is then replayed serially in the
  // same tree order the serial path uses.
  const simd::KernelSet& kernels = filter.kernels();
  pool->parallel_for(0, 4, [&](int t0, int t1) {
    KernelLineFilter pure(kernels);
    for (int t = t0; t < t1; ++t) {
      pyr.tree[t] = forward_tree(img, config, t >> 1, t & 1, pure);
    }
  });
  for (int t = 0; t < 4; ++t) {
    detail::account_forward_tree(img.rows(), img.cols(), config, t >> 1, t & 1,
                                 filter);
  }
  return pyr;
}

ImageF inverse_dtcwt(const DtcwtPyramid& pyr, const TransformConfig& config,
                     LineFilter& filter) {
  ThreadPool* pool = filter.pool();
  if (pool == nullptr) {
    ImageF acc;
    for (int t = 0; t < 4; ++t) {
      ImageF rec = inverse_tree(pyr.tree[t], config, t >> 1, t & 1, filter);
      if (t == 0) {
        acc = std::move(rec);
      } else {
        for (std::size_t i = 0; i < acc.size(); ++i) acc.data()[i] += rec.data()[i];
      }
    }
    for (std::size_t i = 0; i < acc.size(); ++i) acc.data()[i] *= 0.25f;
    return acc;
  }
  ImageF recs[4];
  const simd::KernelSet& kernels = filter.kernels();
  pool->parallel_for(0, 4, [&](int t0, int t1) {
    KernelLineFilter pure(kernels);
    for (int t = t0; t < t1; ++t) {
      recs[t] = inverse_tree(pyr.tree[t], config, t >> 1, t & 1, pure);
    }
  });
  for (int t = 0; t < 4; ++t) {
    account_inverse_tree(pyr.tree[t], config, t >> 1, t & 1, filter);
  }
  // Combine in the serial path's exact order (float summation order matters
  // for bit-identity).
  ImageF acc = std::move(recs[0]);
  for (int t = 1; t < 4; ++t) {
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc.data()[i] += recs[t].data()[i];
    }
  }
  for (std::size_t i = 0; i < acc.size(); ++i) acc.data()[i] *= 0.25f;
  return acc;
}

}  // namespace vf::dwt
