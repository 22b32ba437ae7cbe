// Perfect-reconstruction and structural tests for the DT-CWT core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fusion/dwt_fusion.h"
#include "tests/dtcwt_oracle.h"

namespace {

using namespace vf;
using image::ImageF;

ImageF random_image(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  ImageF img(rows, cols);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img.data()[i] = rng.next_float(0.0f, 1.0f);
  }
  return img;
}

double max_abs_diff(const ImageF& a, const ImageF& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]));
  }
  return m;
}

// Single-level 1-D analysis+synthesis must be the identity for every bank
// and both trees.
TEST(FilterBank, SingleLevelPerfectReconstruction1D) {
  const dwt::Wavelet wavelets[] = {dwt::Wavelet::kLeGall53, dwt::Wavelet::kCdf97,
                                   dwt::Wavelet::kQshift14A, dwt::Wavelet::kQshift14B};
  for (dwt::Wavelet w : wavelets) {
    for (int delay : {0, 1}) {
      const dwt::FilterBank bank = dwt::make_filter_bank(w, delay);
      const int n = 64;
      Rng rng(42);
      oracle::Line x(n), lo, hi;
      for (float& v : x) v = rng.next_float(-1.0f, 1.0f);
      oracle::analyze(bank, x, &lo, &hi);
      const oracle::Line y = oracle::synthesize(bank, lo, hi);
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i], y[i], 2e-5f)
            << dwt::wavelet_name(w) << " delay=" << delay << " i=" << i;
      }
    }
  }
}

TEST(FilterBank, RequiredSlotsMatchesFilterLengths) {
  EXPECT_EQ(dwt::required_slots(dwt::make_filter_bank(dwt::Wavelet::kLeGall53)), 5);
  EXPECT_EQ(dwt::required_slots(dwt::make_filter_bank(dwt::Wavelet::kCdf97)), 9);
  EXPECT_EQ(dwt::required_slots(dwt::make_filter_bank(dwt::Wavelet::kQshift14A)), 14);
  EXPECT_EQ(dwt::required_slots(dwt::make_filter_bank(dwt::Wavelet::kQshift14B)), 14);
}

TEST(Dtcwt, MultiLevelRoundTripUnderTolerance) {
  // The acceptance bound from the issue: max abs error < 1e-4 over random
  // frames through the full multi-level dual-tree transform.
  dwt::TransformConfig config;
  config.levels = 3;
  dwt::KernelLineFilter filter(simd::scalar_kernels());
  const ImageF img = random_image(72, 88, 7);
  const dwt::DtcwtPyramid pyr = dwt::forward_dtcwt(img, config, filter);
  const ImageF rec = dwt::inverse_dtcwt(pyr, config, filter);
  ASSERT_EQ(rec.rows(), img.rows());
  ASSERT_EQ(rec.cols(), img.cols());
  EXPECT_LT(max_abs_diff(img, rec), 1e-4);
}

TEST(Dtcwt, RoundTripOddSizesAndDeepLevels) {
  for (int levels : {1, 2, 3, 4}) {
    for (auto [rows, cols] : {std::pair{35, 35}, {24, 32}, {33, 47}}) {
      dwt::TransformConfig config;
      config.levels = levels;
      dwt::KernelLineFilter filter(simd::scalar_kernels());
      const ImageF img = random_image(rows, cols, 100 + levels);
      const dwt::DtcwtPyramid pyr = dwt::forward_dtcwt(img, config, filter);
      const ImageF rec = dwt::inverse_dtcwt(pyr, config, filter);
      EXPECT_LT(max_abs_diff(img, rec), 1e-4)
          << rows << "x" << cols << " levels=" << levels;
    }
  }
}

TEST(Dtcwt, Cdf97Level1RoundTrip) {
  dwt::TransformConfig config;
  config.level1 = dwt::Wavelet::kCdf97;
  dwt::KernelLineFilter filter(simd::scalar_kernels());
  const ImageF img = random_image(48, 64, 9);
  const ImageF rec =
      dwt::inverse_dtcwt(dwt::forward_dtcwt(img, config, filter), config, filter);
  EXPECT_LT(max_abs_diff(img, rec), 1e-4);
}

TEST(Dtcwt, NonQshiftHigherBankStillFormsAConsistentDualTree) {
  // A biorthogonal `higher` bank has no q-shift mate; tree B falls back to
  // the one-sample-delayed bank and PR must still hold for all four trees.
  dwt::TransformConfig config;
  config.higher = dwt::Wavelet::kCdf97;
  dwt::KernelLineFilter filter(simd::scalar_kernels());
  const ImageF img = random_image(48, 64, 21);
  const ImageF rec =
      dwt::inverse_dtcwt(dwt::forward_dtcwt(img, config, filter), config, filter);
  EXPECT_LT(max_abs_diff(img, rec), 1e-4);
}

TEST(Dtcwt, SingleTreeRoundTrip) {
  dwt::TransformConfig config;
  dwt::KernelLineFilter filter(simd::scalar_kernels());
  const ImageF img = random_image(40, 40, 11);
  const dwt::TreePyramid pyr = dwt::forward_tree(img, config, 0, 0, filter);
  const ImageF rec = dwt::inverse_tree(pyr, config, 0, 0, filter);
  EXPECT_LT(max_abs_diff(img, rec), 1e-4);
}

TEST(Dtcwt, DualTreeCostsFourTimesTheDwt) {
  dwt::TransformConfig config;
  const ImageF img = random_image(40, 40, 13);
  dwt::KernelLineFilter f1(simd::scalar_kernels()), f4(simd::scalar_kernels());
  dwt::forward_tree(img, config, 0, 0, f1);
  dwt::forward_dtcwt(img, config, f4);
  EXPECT_EQ(4 * f1.stats().total_macs(), f4.stats().total_macs());
  EXPECT_EQ(4 * f1.stats().analysis_lines, f4.stats().analysis_lines);
}

TEST(Dtcwt, SimdFilterMatchesScalarBitExactly) {
  dwt::TransformConfig config;
  const ImageF img = random_image(35, 35, 17);
  dwt::KernelLineFilter fs(simd::scalar_kernels());
  dwt::KernelLineFilter fv(simd::simd_kernels());
  const dwt::DtcwtPyramid ps = dwt::forward_dtcwt(img, config, fs);
  const dwt::DtcwtPyramid pv = dwt::forward_dtcwt(img, config, fv);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(0.0, max_abs_diff(ps.tree[t].ll, pv.tree[t].ll)) << "tree " << t;
    for (std::size_t lv = 0; lv < ps.tree[t].levels.size(); ++lv) {
      EXPECT_EQ(0.0, max_abs_diff(ps.tree[t].levels[lv].hh,
                                  pv.tree[t].levels[lv].hh))
          << "tree " << t << " level " << lv;
    }
  }
}

// The CMake default is Release, so these checks must hold without assert:
// a transform with fewer than one level, or an inverse handed a pyramid
// whose level count or band dims break the halving chain from its level-0
// input dims, would index past its planes.
TEST(DtcwtDeathTest, RejectsBadLevelsAndPyramidsInEveryBuild) {
  const ImageF img = random_image(20, 18, 3);
  dwt::KernelLineFilter filter(simd::scalar_kernels());
  for (int levels : {0, -1}) {
    dwt::TransformConfig flat;
    flat.levels = levels;
    const std::string dims = "\\(20x18, " + std::to_string(levels) + " levels\\)";
    EXPECT_DEATH(dwt::forward_tree(img, flat, 0, 0, filter), "forward_tree" + dims);
    EXPECT_DEATH(dwt::forward_dtcwt(img, flat, filter), "forward_dtcwt" + dims);
  }
  EXPECT_DEATH(dwt::forward_tree(ImageF(), dwt::TransformConfig{}, 0, 0, filter),
               "forward_tree\\(0x0, 3 levels\\)");

  const dwt::TransformConfig config;
  const dwt::TreePyramid good = dwt::forward_tree(img, config, 1, 0, filter);
  dwt::TransformConfig two = config;
  two.levels = 2;
  dwt::TransformConfig flat = config;
  flat.levels = 0;
  EXPECT_DEATH(dwt::inverse_tree(good, flat, 1, 0, filter), "inverse_tree\\(20x18, 0 levels\\)");
  EXPECT_DEATH(dwt::inverse_tree(good, two, 1, 0, filter),
               "inverse_tree: pyramid is not the 2-level transform of a 20x18 frame");
  std::vector<dwt::TreePyramid> bad(6, good);
  bad[0].levels.pop_back();
  bad[1].levels[1].in_rows += 2;
  bad[2].levels[2].in_cols -= 1;
  bad[3].levels[1].hh = ImageF(3, 3);
  bad[4].ll = ImageF(1, 1);
  bad[5] = dwt::TreePyramid{};
  for (std::size_t i = 0; i + 1 < bad.size(); ++i) {
    EXPECT_DEATH(dwt::inverse_tree(bad[i], config, 1, 0, filter),
                 "inverse_tree: pyramid is not the 3-level transform of a 20x18 frame")
        << "case " << i;
  }
  EXPECT_DEATH(dwt::inverse_tree(bad[5], config, 1, 0, filter),
               "inverse_tree\\(0x0, 3 levels\\)");

  const dwt::DtcwtPyramid pyr = dwt::forward_dtcwt(img, config, filter);
  dwt::DtcwtPyramid narrow = pyr;
  narrow.tree[2].levels[0].lh = ImageF(10, 8);
  EXPECT_DEATH(dwt::inverse_dtcwt(narrow, config, filter),
               "inverse_dtcwt: pyramid is not the 3-level transform of a 20x18 frame");
  dwt::DtcwtPyramid mixed = pyr;
  mixed.tree[3] = dwt::forward_tree(random_image(24, 18, 4), config, 1, 1, filter);
  EXPECT_DEATH(dwt::inverse_dtcwt(mixed, config, filter),
               "inverse_dtcwt: pyramid is not the 3-level transform of a 20x18 frame");
  // Well-formed pyramids still invert.
  EXPECT_LT(max_abs_diff(img, dwt::inverse_tree(good, config, 1, 0, filter)), 1e-4);
  EXPECT_LT(max_abs_diff(img, dwt::inverse_dtcwt(pyr, config, filter)), 1e-4);
}

}  // namespace
