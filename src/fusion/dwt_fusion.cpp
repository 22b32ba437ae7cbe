#include "src/fusion/dwt_fusion.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

// --- the transform engine ---------------------------------------------------

HostLayout host_layout() { return HostLayout::kFused; }
const char* host_layout_name(HostLayout) { return "fused"; }

namespace {

using image::ImageF;

constexpr int kLineBlock = simd::kMaxLinesPerCall;

// Blocks of kLineBlock lines covering n lines (the last may be partial).
int blocks_of(int n) { return (n + kLineBlock - 1) / kLineBlock; }

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

TransformLevels::TransformLevels(int rows, int cols, const TransformConfig& config,
                                 const char* where) {
  // Always-on: the CMake default is Release, where an assert would let an
  // empty or zero-level transform index past its planes.
  if (rows < 1 || cols < 1 || config.levels < 1) {
    std::fprintf(stderr, "fatal: %s(%dx%d, %d levels)\n", where, rows, cols,
                 config.levels);
    std::abort();
  }
  for (int tree = 0; tree < 2; ++tree) {
    banks[tree].reserve(config.levels);
    for (int level = 0; level < config.levels; ++level) {
      banks[tree].push_back(bank_for_level(config, level, tree));
    }
  }
  // One lane-interleaved call filters both trees with one tap count, and
  // select_synth_ml interleaves one (ca, cb) pair per call. make_filter_bank
  // guarantees the tree-A and tree-B banks agree on window widths by
  // construction (the level-1 delay shifts both window ends; the q-shift
  // reversal stays inside the same 14-tap window); a config that broke it
  // must not run.
  for (int level = 0; level < config.levels; ++level) {
    const FilterBank& a = banks[0][level];
    const FilterBank& b = banks[1][level];
    if (a.taps() != b.taps() || a.synth_taps() != b.synth_taps()) {
      std::fprintf(stderr,
                   "fatal: %s level %d: tree banks disagree on taps (%d, %d) "
                   "or synth_taps (%d, %d)\n",
                   where, level, a.taps(), b.taps(), a.synth_taps(),
                   b.synth_taps());
      std::abort();
    }
  }
  dims.reserve(config.levels);
  int r = rows, c = cols;
  for (int level = 0; level < config.levels; ++level) {
    LevelDims d;
    d.r = r;
    d.c = c;
    d.rp = r + (r & 1);
    d.cp = c + (c & 1);
    d.hr = d.rp / 2;
    d.hc = d.cp / 2;
    // Extended row-pass planes (extend_rows): the column bank of tree t
    // reads its extension ext[k] = x[(k - E_t) mod rp] as plane row
    // k + skip[t].
    const PeriodicLayout w = periodic_layout(banks[0][level].analysis_offset,
                                             banks[1][level].analysis_offset,
                                             d.rp, banks[0][level].taps());
    d.lead = w.lead;
    d.skip[0] = w.skip[0];
    d.skip[1] = w.skip[1];
    d.ext_rows = w.rows;
    dims.push_back(d);
    r = d.hr;
    c = d.hc;
  }
}

// Row passes run over slabs of kLineBlock rows in the lane layout — lane l
// of a slab is image row r + l. The source rows are transposed into the
// slab, edge-replicated to the padded rp x cp and periodically extended as
// whole rows; one analyze_mag_ml call then filters both sides (re = side 0,
// im = side 1, no magnitudes), reading one shared slab when the sides share
// a source. The four lane outputs are transposed into consecutive rows of
// the destination planes.
void forward_row_slabs(const TransformLevels& t, int level,
                       const float* const src[2], int src_stride,
                       const int row_tree[2], const simd::KernelSet& k,
                       ThreadPool* pool, int b0, int b1, float* const lo[2],
                       float* const hi[2]) {
  const LevelDims& d = t.dims[level];
  const FilterBank* const bank[2] = {&t.banks[row_tree[0]][level],
                                     &t.banks[row_tree[1]][level]};
  const int taps = bank[0]->taps();
  const PeriodicLayout w = periodic_layout(
      bank[0]->analysis_offset, bank[1]->analysis_offset, d.cp, taps);
  const int sources = src[0] == src[1] ? 1 : 2;
  float* const dst[4] = {lo[0], hi[0], lo[1], hi[1]};
  auto block = [&](int first, int last) {
    ArenaScope scratch;
    float* slab[2] = {};
    for (int s = 0; s < sources; ++s) {
      slab[s] = scratch.alloc(static_cast<size_t>(w.rows) * kLineBlock);
    }
    if (sources == 1) slab[1] = slab[0];
    float* out[4] = {};
    for (float*& o : out) o = scratch.alloc(static_cast<size_t>(d.hc) * kLineBlock);
    for (int b = first; b < last; ++b) {
      const int r = b * kLineBlock;
      const int nb = std::min(kLineBlock, d.rp - r);
      // Rows past r - 1 (at most the block's last lane, as rp is even)
      // replicate it; column cp - 1 past c - 1 replicates it.
      const int real = std::min(nb, d.r - r);
      for (int s = 0; s < sources; ++s) {
        float* x = slab[s] + static_cast<size_t>(w.lead) * kLineBlock;
        simd::transpose_f32(src[s] + static_cast<size_t>(r) * src_stride, real,
                            d.c, src_stride, x, kLineBlock);
        if (real < nb) {
          for (int j = 0; j < d.c; ++j) {
            x[j * kLineBlock + real] = x[j * kLineBlock + real - 1];
          }
        }
        if (d.cp > d.c) {
          std::memcpy(x + static_cast<size_t>(d.c) * kLineBlock,
                      x + static_cast<size_t>(d.c - 1) * kLineBlock,
                      kLineBlock * sizeof(float));
        }
        extend_rows(slab[s], kLineBlock, w.lead, d.cp, w.rows);
      }
      k.analyze_mag_ml(slab[0] + static_cast<size_t>(w.skip[0]) * kLineBlock,
                       slab[1] + static_cast<size_t>(w.skip[1]) * kLineBlock,
                       kLineBlock, nb, d.hc, bank[0]->lp.data(), bank[0]->hp.data(),
                       bank[1]->lp.data(), bank[1]->hp.data(), taps, out[0],
                       out[1], out[2], out[3], nullptr, nullptr, kLineBlock);
      for (int q = 0; q < 4; ++q) {
        simd::transpose_f32(out[q], d.hc, nb, kLineBlock,
                            dst[q] + static_cast<size_t>(r - b0 * kLineBlock) * d.hc,
                            d.hc);
      }
    }
  };
  parallel_chunks(pool, b0, b1, block);
}

// All slabs into rows [lead, lead + rp); extend_rows completes the periodic
// extension around them.
void forward_row_pass(const TransformLevels& t, int level,
                      const float* const src[2], int src_stride,
                      const int row_tree[2], const simd::KernelSet& k,
                      ThreadPool* pool, float* const lo[2], float* const hi[2]) {
  const LevelDims& d = t.dims[level];
  const size_t at = static_cast<size_t>(d.lead) * d.hc;
  float* const lo_at[2] = {lo[0] + at, lo[1] + at};
  float* const hi_at[2] = {hi[0] + at, hi[1] + at};
  forward_row_slabs(t, level, src, src_stride, row_tree, k, pool, 0,
                    blocks_of(d.rp), lo_at, hi_at);
  for (float* plane : {lo[0], hi[0], lo[1], hi[1]}) {
    extend_rows(plane, d.hc, d.lead, d.rp, d.ext_rows);
  }
}

// Lane l of a call is image column c + l, read straight from the extended
// row-pass planes at their row stride.
void analysis_col_pass(const TransformLevels& t, int level,
                       const float* const lo[2], const float* const hi[2],
                       const int col_tree[2], const simd::KernelSet& k,
                       ThreadPool* pool, float* const ll[2], float* const lh[2],
                       float* const hl[2], float* const hh[2], int stride) {
  const LevelDims& d = t.dims[level];
  const FilterBank& b0 = t.banks[col_tree[0]][level];
  const FilterBank& b1 = t.banks[col_tree[1]][level];
  const size_t in0 = static_cast<size_t>(d.skip[col_tree[0]]) * d.hc;
  const size_t in1 = static_cast<size_t>(d.skip[col_tree[1]]) * d.hc;
  parallel_chunks(pool, 0, blocks_of(d.hc), [&](int c0, int c1) {
    for (int bi = c0; bi < c1; ++bi) {
      const int c = bi * kLineBlock;
      const int nb = std::min(kLineBlock, d.hc - c);
      k.analyze_mag_ml(lo[0] + in0 + c, lo[1] + in1 + c, d.hc, nb, d.hr,
                       b0.lp.data(), b0.hp.data(), b1.lp.data(), b1.hp.data(),
                       b0.taps(), ll[0] + c, lh[0] + c, ll[1] + c, lh[1] + c,
                       nullptr, nullptr, stride);
      k.analyze_mag_ml(hi[0] + in0 + c, hi[1] + in1 + c, d.hc, nb, d.hr,
                       b0.lp.data(), b0.hp.data(), b1.lp.data(), b1.hp.data(),
                       b0.taps(), hl[0] + c, hh[0] + c, hl[1] + c, hh[1] + c,
                       nullptr, nullptr, stride);
    }
  });
}

// select_synth_ml with every *_b null builds each column's periodic
// interleaved extension of `pairs` pairs from synth_offset and synthesizes
// it, straight into the row-major rowlo/rowhi planes.
void synthesis_col_window(const TransformLevels& t, int level, int col_tree,
                          const float* ll, const float* lh, const float* hl,
                          const float* hh, int stride, int pairs, int synth_offset,
                          const simd::KernelSet& k, ThreadPool* pool, float* rowlo,
                          float* rowhi) {
  const LevelDims& d = t.dims[level];
  const FilterBank& b = t.banks[col_tree][level];
  parallel_chunks(pool, 0, blocks_of(d.hc), [&](int c0, int c1) {
    for (int bi = c0; bi < c1; ++bi) {
      const int c = bi * kLineBlock;
      const int nb = std::min(kLineBlock, d.hc - c);
      k.select_synth_ml(ll + c, nullptr, nullptr, nullptr, lh + c, nullptr,
                        nullptr, nullptr, stride, nb, pairs, b.ca.data(),
                        b.cb.data(), b.synth_taps(), synth_offset, rowlo + c, d.hc);
      k.select_synth_ml(hl + c, nullptr, nullptr, nullptr, hh + c, nullptr,
                        nullptr, nullptr, stride, nb, pairs, b.ca.data(),
                        b.cb.data(), b.synth_taps(), synth_offset, rowhi + c, d.hc);
    }
  });
}

void synthesis_col_pass(const TransformLevels& t, int level, int col_tree,
                        const float* ll, const float* lh, const float* hl,
                        const float* hh, int stride, const simd::KernelSet& k,
                        ThreadPool* pool, float* rowlo, float* rowhi) {
  synthesis_col_window(t, level, col_tree, ll, lh, hl, hh, stride, t.dims[level].hr,
                       t.banks[col_tree][level].synthesis_offset, k, pool, rowlo,
                       rowhi);
}

// Over kLineBlock-row slabs of the rows kept (a padded last row only feeds
// the crop): both inputs are transposed into lane slabs, select_synth_ml
// with every *_b null synthesizes each lane, and the first c samples of each
// lane land in `out` — transposed straight in, or, when the sink combines
// trees, transposed into an L1 tile of kCombineCols columns and combined
// from there.
void synthesis_row_pass(const TransformLevels& t, int level, int row_tree,
                        const float* rowlo, const float* rowhi, int rows,
                        const simd::KernelSet& k, ThreadPool* pool, float* out,
                        int out_stride, const RowSink& sink) {
  constexpr int kCombineCols = 256;
  const LevelDims& d = t.dims[level];
  const FilterBank& bank = t.banks[row_tree][level];
  auto block = [&](int b0, int b1) {
    ArenaScope scratch;
    float* lo = scratch.alloc(static_cast<size_t>(d.hc) * kLineBlock);
    float* hi = scratch.alloc(static_cast<size_t>(d.hc) * kLineBlock);
    float* y = scratch.alloc(static_cast<size_t>(d.cp) * kLineBlock);
    float* tile = sink.mode == RowSink::kStore
                      ? nullptr
                      : scratch.alloc(static_cast<size_t>(kLineBlock) * kCombineCols);
    for (int b = b0; b < b1; ++b) {
      const int r = b * kLineBlock;
      const int nb = std::min(kLineBlock, rows - r);
      simd::transpose_f32(rowlo + static_cast<size_t>(r) * d.hc, nb, d.hc, d.hc, lo,
                          kLineBlock);
      simd::transpose_f32(rowhi + static_cast<size_t>(r) * d.hc, nb, d.hc, d.hc, hi,
                          kLineBlock);
      k.select_synth_ml(lo, nullptr, nullptr, nullptr, hi, nullptr, nullptr,
                        nullptr, kLineBlock, nb, d.hc, bank.ca.data(),
                        bank.cb.data(), bank.synth_taps(), bank.synthesis_offset,
                        y, kLineBlock);
      float* o = out + static_cast<size_t>(r) * out_stride;
      if (sink.mode == RowSink::kStore) {
        simd::transpose_f32(y, d.c, nb, kLineBlock, o, out_stride);
        continue;
      }
      for (int j0 = 0; j0 < d.c; j0 += kCombineCols) {
        const int w = std::min(kCombineCols, d.c - j0);
        simd::transpose_f32(y + static_cast<size_t>(j0) * kLineBlock, w, nb,
                            kLineBlock, tile, kCombineCols);
        for (int l = 0; l < nb; ++l) {
          const size_t row = static_cast<size_t>(l) * out_stride + j0;
          float* acc = o + row;
          const float* v = tile + static_cast<size_t>(l) * kCombineCols;
          if (sink.mode == RowSink::kAdd) {
            for (int i = 0; i < w; ++i) acc[i] += v[i];
          } else {
            const float* q = sink.other + static_cast<size_t>(r) * out_stride + row;
            for (int i = 0; i < w; ++i) acc[i] = ((acc[i] + v[i]) + q[i]) * 0.25f;
          }
        }
      }
    }
  };
  parallel_chunks(pool, 0, blocks_of(rows), block);
}

void account_forward_tree(const TransformLevels& t, int row_tree, int col_tree,
                          LineFilter& f) {
  for (int level = 0; level < t.levels(); ++level) {
    const LevelDims& d = t.dims[level];
    const int row_taps = t.banks[row_tree][level].taps();
    const int col_taps = t.banks[col_tree][level].taps();
    for (int i = 0; i < d.rp; ++i) f.account_analyze(d.hc, row_taps);
    f.barrier();  // the column pass reads the row pass's outputs
    for (int i = 0; i < d.hc; ++i) {
      f.account_analyze(d.hr, col_taps);
      f.account_analyze(d.hr, col_taps);
    }
    f.barrier();  // the next level (or consumer) reads this level's outputs
  }
}

void account_inverse_tree(const TransformLevels& t, int row_tree, int col_tree,
                          LineFilter& f) {
  for (int level = t.levels() - 1; level >= 0; --level) {
    const LevelDims& d = t.dims[level];
    const int col_staps = t.banks[col_tree][level].synth_taps();
    const int row_staps = t.banks[row_tree][level].synth_taps();
    for (int i = 0; i < d.hc; ++i) {
      f.account_synthesize(d.hr, col_staps);
      f.account_synthesize(d.hr, col_staps);
    }
    f.barrier();  // the row pass reads the column pass's outputs
    for (int i = 0; i < d.rp; ++i) f.account_synthesize(d.hc, row_staps);
    f.barrier();  // the next (shallower) level reads this reconstruction
  }
}

}  // namespace detail

namespace {

using detail::LevelDims;
using detail::TransformLevels;

// Both sides' forward transform from their level-0 row-pass planes (side s:
// row tree row_tree[s], column tree col_tree[s]) into out[s]. Subband planes
// are written straight into the pyramids; a non-deepest lowpass plane stays
// in scratch as the next level's input.
void forward_sides(const TransformLevels& t, float* const row0lo[2],
                   float* const row0hi[2], const int row_tree[2],
                   const int col_tree[2], const simd::KernelSet& k,
                   ThreadPool* pool, TreePyramid* const out[2]) {
  ArenaScope scope;
  const float* cur[2] = {};  // this level's lowpass input (levels > 0)
  for (int level = 0; level < t.levels(); ++level) {
    const LevelDims& d = t.dims[level];
    float* ll[2];
    float* lh[2];
    float* hl[2];
    float* hh[2];
    for (int s = 0; s < 2; ++s) {
      LevelBands& b = out[s]->levels.emplace_back();
      b.in_rows = d.r;
      b.in_cols = d.c;
      for (ImageF* band : {&b.lh, &b.hl, &b.hh}) *band = ImageF(d.hr, d.hc);
      lh[s] = b.lh.data();
      hl[s] = b.hl.data();
      hh[s] = b.hh.data();
      if (level + 1 == t.levels()) {
        out[s]->ll = ImageF(d.hr, d.hc);
        ll[s] = out[s]->ll.data();
      } else {
        ll[s] = scope.alloc(static_cast<size_t>(d.hr) * d.hc);
      }
    }
    ArenaScope level_scope;
    float* const* lo = row0lo;
    float* const* hi = row0hi;
    float* rowlo[2];
    float* rowhi[2];
    if (level > 0) {
      for (int s = 0; s < 2; ++s) {
        rowlo[s] = level_scope.alloc(static_cast<size_t>(d.ext_rows) * d.hc);
        rowhi[s] = level_scope.alloc(static_cast<size_t>(d.ext_rows) * d.hc);
      }
      detail::forward_row_pass(t, level, cur, d.c, row_tree, k, pool, rowlo, rowhi);
      lo = rowlo;
      hi = rowhi;
    }
    detail::analysis_col_pass(t, level, lo, hi, col_tree, k, pool, ll, lh, hl, hh,
                              d.hc);
    for (int s = 0; s < 2; ++s) cur[s] = ll[s];
  }
}

// Both sides' level-0 row pass (side s: the rows x cols frame src[s], row
// tree row_tree[s]) into extended planes lo[s]/hi[s] from `scope`.
void level0_row_pass(const TransformLevels& t, const float* const src[2],
                     const int row_tree[2], const simd::KernelSet& k,
                     ThreadPool* pool, ArenaScope& scope, float* lo[2],
                     float* hi[2]) {
  const LevelDims& d = t.dims[0];
  for (int s = 0; s < 2; ++s) {
    lo[s] = scope.alloc(static_cast<size_t>(d.ext_rows) * d.hc);
    hi[s] = scope.alloc(static_cast<size_t>(d.ext_rows) * d.hc);
  }
  detail::forward_row_pass(t, 0, src, d.c, row_tree, k, pool, lo, hi);
}

// Aborts in every build type, naming `where`, unless `pyr` has t.levels()
// levels whose input and band dims follow t's halving chain — the inverse
// reads every plane at those dims.
void check_pyramid(const TransformLevels& t, const TreePyramid& pyr,
                   const char* where) {
  bool ok = static_cast<int>(pyr.levels.size()) == t.levels() &&
            pyr.ll.rows() == t.dims.back().hr && pyr.ll.cols() == t.dims.back().hc;
  for (int level = 0; ok && level < t.levels(); ++level) {
    const LevelDims& d = t.dims[level];
    const LevelBands& b = pyr.levels[level];
    ok = b.in_rows == d.r && b.in_cols == d.c;
    for (const ImageF* band : {&b.lh, &b.hl, &b.hh}) {
      ok = ok && band->rows() == d.hr && band->cols() == d.hc;
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "fatal: %s: pyramid is not the %d-level transform of a %dx%d "
                 "frame\n",
                 where, t.levels(), t.dims[0].r, t.dims[0].c);
    std::abort();
  }
}

// The TransformLevels of the frame a pyramid's level 0 records, checked
// against the pyramid.
TransformLevels levels_of(const TreePyramid& pyr, const TransformConfig& config,
                          const char* where) {
  const bool any = !pyr.levels.empty();
  TransformLevels t(any ? pyr.levels[0].in_rows : 0,
                    any ? pyr.levels[0].in_cols : 0, config, where);
  check_pyramid(t, pyr, where);
  return t;
}

}  // namespace

void detail::forward_tree_pair(const TransformLevels& t, const ImageF& a,
                               const ImageF& b, int row_tree, int col_tree,
                               const simd::KernelSet& k, ThreadPool* pool,
                               TreePyramid* pa, TreePyramid* pb) {
  ArenaScope scope;
  const float* const src[2] = {a.data(), b.data()};
  const int rt[2] = {row_tree, row_tree};
  const int ct[2] = {col_tree, col_tree};
  float* lo[2];
  float* hi[2];
  level0_row_pass(t, src, rt, k, pool, scope, lo, hi);
  TreePyramid* const out[2] = {pa, pb};
  forward_sides(t, lo, hi, rt, ct, k, pool, out);
}

ImageF detail::inverse_tree_numerics(const TransformLevels& t,
                                     const TreePyramid& pyr, int row_tree,
                                     int col_tree, const simd::KernelSet& k,
                                     ThreadPool* pool) {
  ImageF out(t.dims[0].r, t.dims[0].c);
  ArenaScope scope;
  // This level's lowpass input, hr x hc: the deepest lowpass band, above it
  // the deeper level's reconstruction.
  const float* ll = pyr.ll.data();
  for (int level = t.levels() - 1; level >= 0; --level) {
    const LevelDims& d = t.dims[level];
    const LevelBands& b = pyr.levels[level];
    float* rowlo = scope.alloc(static_cast<size_t>(d.rp) * d.hc);
    float* rowhi = scope.alloc(static_cast<size_t>(d.rp) * d.hc);
    synthesis_col_pass(t, level, col_tree, ll, b.lh.data(), b.hl.data(),
                       b.hh.data(), d.hc, k, pool, rowlo, rowhi);
    float* rec =
        level == 0 ? out.data() : scope.alloc(static_cast<size_t>(d.r) * d.c);
    synthesis_row_pass(t, level, row_tree, rowlo, rowhi, d.r, k, pool, rec, d.c);
    ll = rec;
  }
  return out;
}

TreePyramid forward_tree(const ImageF& img, const TransformConfig& config,
                         int row_tree, int col_tree, LineFilter& filter) {
  const TransformLevels t(img.rows(), img.cols(), config, "forward_tree");
  // One tree fills one side of each lane call; the other side's duplicate
  // is dropped.
  TreePyramid pyr, spare;
  detail::forward_tree_pair(t, img, img, row_tree, col_tree, filter.kernels(),
                            filter.pool(), &pyr, &spare);
  detail::account_forward_tree(t, row_tree, col_tree, filter);
  return pyr;
}

ImageF inverse_tree(const TreePyramid& pyr, const TransformConfig& config,
                    int row_tree, int col_tree, LineFilter& filter) {
  const TransformLevels t = levels_of(pyr, config, "inverse_tree");
  ImageF out = detail::inverse_tree_numerics(t, pyr, row_tree, col_tree,
                                             filter.kernels(), filter.pool());
  detail::account_inverse_tree(t, row_tree, col_tree, filter);
  return out;
}

DtcwtPyramid forward_dtcwt(const ImageF& img, const TransformConfig& config,
                           LineFilter& filter) {
  const TransformLevels t(img.rows(), img.cols(), config, "forward_dtcwt");
  const simd::KernelSet& k = filter.kernels();
  ThreadPool* pool = filter.pool();
  DtcwtPyramid pyr;
  {
    // Both pairs' side s is row tree s, so one level-0 row pass serves both.
    ArenaScope scope;
    const float* const src[2] = {img.data(), img.data()};
    const int row_tree[2] = {0, 1};
    float* lo[2];
    float* hi[2];
    level0_row_pass(t, src, row_tree, k, pool, scope, lo, hi);
    for (int p = 0; p < 2; ++p) {
      const int col_tree[2] = {p, 1 - p};
      TreePyramid* const out[2] = {&pyr.tree[detail::kPairTree[p][0]],
                                   &pyr.tree[detail::kPairTree[p][1]]};
      forward_sides(t, lo, hi, row_tree, col_tree, k, pool, out);
    }
  }
  for (int tree = 0; tree < 4; ++tree) {
    detail::account_forward_tree(t, tree >> 1, tree & 1, filter);
  }
  return pyr;
}

ImageF inverse_dtcwt(const DtcwtPyramid& pyr, const TransformConfig& config,
                     LineFilter& filter) {
  const TransformLevels t = levels_of(pyr.tree[0], config, "inverse_dtcwt");
  for (int tree = 1; tree < 4; ++tree) {
    check_pyramid(t, pyr.tree[tree], "inverse_dtcwt");
  }
  // The trees summed in tree order, then scaled (float summation order is
  // part of the bit-identity contract).
  ImageF acc;
  for (int tree = 0; tree < 4; ++tree) {
    ImageF rec = detail::inverse_tree_numerics(
        t, pyr.tree[tree], tree >> 1, tree & 1, filter.kernels(), filter.pool());
    if (tree == 0) {
      acc = std::move(rec);
    } else {
      for (std::size_t i = 0; i < acc.size(); ++i) acc.data()[i] += rec.data()[i];
    }
  }
  for (std::size_t i = 0; i < acc.size(); ++i) acc.data()[i] *= 0.25f;
  for (int tree = 0; tree < 4; ++tree) {
    detail::account_inverse_tree(t, tree >> 1, tree & 1, filter);
  }
  return acc;
}

}  // namespace vf::dwt
