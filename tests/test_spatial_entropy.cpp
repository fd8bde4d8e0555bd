// Tests of the spatial entropy of power maps (Eq. 3) and its
// nested-means classification.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "leakage/spatial_entropy.hpp"

namespace tsc3d::leakage {
namespace {

// The original allocating kernel, kept verbatim as the bitwise oracle for
// the scratch-based one: per-call prefix vectors in ordered_pair_dist, a
// sorted copy per nested-means call, per-class histogram vectors, and
// the all-bins prefix sums rebuilt for every class.
namespace reference {

std::pair<double, double> mean_std(const std::vector<double>& values,
                                   std::size_t lo, std::size_t hi) {
  const auto n = static_cast<double>(hi - lo);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  const double mean = sum / n;
  double var = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    const double d = values[i] - mean;
    var += d * d;
  }
  return {mean, std::sqrt(var / n)};
}

void nested_means_recurse(const std::vector<double>& sorted, std::size_t lo,
                          std::size_t hi, std::size_t depth,
                          double std_floor, std::size_t max_depth,
                          std::vector<double>& cuts) {
  if (hi - lo < 2 || depth >= max_depth) return;
  const auto [mean, sd] = mean_std(sorted, lo, hi);
  if (sd <= std_floor) return;
  const auto it = std::lower_bound(sorted.begin() + static_cast<long>(lo),
                                   sorted.begin() + static_cast<long>(hi),
                                   mean);
  const auto cut = static_cast<std::size_t>(it - sorted.begin());
  if (cut == lo || cut == hi) return;
  cuts.push_back(sorted[cut]);
  nested_means_recurse(sorted, lo, cut, depth + 1, std_floor, max_depth, cuts);
  nested_means_recurse(sorted, cut, hi, depth + 1, std_floor, max_depth, cuts);
}

double ordered_pair_dist(const std::vector<double>& c_a,
                         const std::vector<double>& c_b) {
  const std::size_t n = c_a.size();
  std::vector<double> cnt(n + 1, 0.0), wgt(n + 1, 0.0);
  for (std::size_t x = 0; x < n; ++x) {
    cnt[x + 1] = cnt[x] + c_b[x];
    wgt[x + 1] = wgt[x] + c_b[x] * static_cast<double>(x);
  }
  const double cnt_tot = cnt[n];
  const double wgt_tot = wgt[n];
  double total = 0.0;
  for (std::size_t x = 0; x < n; ++x) {
    if (c_a[x] == 0.0) continue;
    const auto xf = static_cast<double>(x);
    const double below = xf * cnt[x + 1] - wgt[x + 1];
    const double above = (wgt_tot - wgt[x + 1]) - xf * (cnt_tot - cnt[x + 1]);
    total += c_a[x] * (below + above);
  }
  return total;
}

std::vector<double> nested_means_cuts(std::vector<double> values,
                                      double std_tolerance,
                                      std::size_t max_depth) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const auto [mean_all, sd_all] = mean_std(values, 0, values.size());
  (void)mean_all;
  std::vector<double> cuts;
  nested_means_recurse(values, 0, values.size(), 0, std_tolerance * sd_all,
                       max_depth, cuts);
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

SpatialEntropyResult spatial_entropy_detailed(
    const GridD& power, const SpatialEntropyOptions& options) {
  SpatialEntropyResult result;
  const std::size_t nx = power.nx();
  const std::size_t ny = power.ny();
  const std::size_t n = nx * ny;
  const std::vector<double> cuts = nested_means_cuts(
      power.data(), options.std_tolerance, options.max_depth);
  const std::size_t num_classes = cuts.size() + 1;
  if (num_classes < 2) {
    PowerClass c;
    c.lo = power.min();
    c.hi = power.max();
    c.members = n;
    result.classes.push_back(c);
    return result;
  }
  std::vector<std::vector<double>> hist_x(num_classes,
                                          std::vector<double>(nx, 0.0));
  std::vector<std::vector<double>> hist_y(num_classes,
                                          std::vector<double>(ny, 0.0));
  std::vector<std::size_t> members(num_classes, 0);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double v = power.at(ix, iy);
      const auto it = std::upper_bound(cuts.begin(), cuts.end(), v);
      const auto cls = static_cast<std::size_t>(it - cuts.begin());
      hist_x[cls][ix] += 1.0;
      hist_y[cls][iy] += 1.0;
      ++members[cls];
    }
  }
  std::vector<double> all_x(nx, 0.0), all_y(ny, 0.0);
  for (std::size_t c = 0; c < num_classes; ++c) {
    for (std::size_t x = 0; x < nx; ++x) all_x[x] += hist_x[c][x];
    for (std::size_t y = 0; y < ny; ++y) all_y[y] += hist_y[c][y];
  }
  const auto n_total = static_cast<double>(n);
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (members[c] == 0) continue;
    PowerClass pc;
    pc.members = members[c];
    pc.lo = c == 0 ? power.min() : cuts[c - 1];
    pc.hi = c == num_classes - 1 ? power.max() : cuts[c];
    const auto n_c = static_cast<double>(members[c]);
    const double intra_sum = ordered_pair_dist(hist_x[c], hist_x[c]) +
                             ordered_pair_dist(hist_y[c], hist_y[c]);
    const double intra_pairs = n_c * (n_c - 1.0);
    pc.d_intra = intra_pairs > 0.0 ? intra_sum / intra_pairs : 0.0;
    const double to_all = ordered_pair_dist(hist_x[c], all_x) +
                          ordered_pair_dist(hist_y[c], all_y);
    const double inter_sum = to_all - intra_sum;
    const double inter_pairs = n_c * (n_total - n_c);
    pc.d_inter = inter_pairs > 0.0 ? inter_sum / inter_pairs : 0.0;
    const double p = n_c / n_total;
    const double shannon_term = -p * std::log2(p);
    result.shannon += shannon_term;
    double weight = 0.0;
    switch (options.ratio) {
      case EntropyRatio::claramunt:
        weight = pc.d_inter > 0.0 ? pc.d_intra / pc.d_inter : 0.0;
        break;
      case EntropyRatio::paper_literal: {
        const double d_intra = pc.d_intra > 0.0 ? pc.d_intra : 1.0;
        weight = pc.d_inter / d_intra;
        break;
      }
    }
    result.entropy += weight * shannon_term;
    result.classes.push_back(pc);
  }
  return result;
}

}  // namespace reference

/// Bit pattern of a double: EXPECT_EQ on doubles would accept 0.0 == -0.0.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every entry point of the kernel against the reference, bitwise.  The
/// caller's scratch is shared across maps of different sizes and class
/// counts, so stale buffer contents would show up here.
void expect_matches_reference(const GridD& map,
                              const SpatialEntropyOptions& opt,
                              SpatialEntropyScratch& scratch) {
  const SpatialEntropyResult ref =
      reference::spatial_entropy_detailed(map, opt);
  const SpatialEntropyResult got = spatial_entropy_detailed(map, opt);
  EXPECT_EQ(bits(got.entropy), bits(ref.entropy));
  EXPECT_EQ(bits(got.shannon), bits(ref.shannon));
  ASSERT_EQ(got.classes.size(), ref.classes.size());
  for (std::size_t c = 0; c < ref.classes.size(); ++c) {
    EXPECT_EQ(bits(got.classes[c].lo), bits(ref.classes[c].lo)) << c;
    EXPECT_EQ(bits(got.classes[c].hi), bits(ref.classes[c].hi)) << c;
    EXPECT_EQ(got.classes[c].members, ref.classes[c].members) << c;
    EXPECT_EQ(bits(got.classes[c].d_intra), bits(ref.classes[c].d_intra))
        << c;
    EXPECT_EQ(bits(got.classes[c].d_inter), bits(ref.classes[c].d_inter))
        << c;
  }
  EXPECT_EQ(bits(spatial_entropy(map, opt)), bits(ref.entropy));
  EXPECT_EQ(bits(spatial_entropy(map, opt, scratch)), bits(ref.entropy));
  const std::vector<double> cuts =
      nested_means_cuts(map.data(), opt.std_tolerance, opt.max_depth);
  const std::vector<double> ref_cuts = reference::nested_means_cuts(
      map.data(), opt.std_tolerance, opt.max_depth);
  ASSERT_EQ(cuts.size(), ref_cuts.size());
  for (std::size_t i = 0; i < cuts.size(); ++i)
    EXPECT_EQ(bits(cuts[i]), bits(ref_cuts[i])) << i;
}

TEST(SpatialEntropyKernel, MatchesReferenceBitwiseOnRandomMaps) {
  Rng rng(2024);
  SpatialEntropyScratch scratch;
  const std::pair<std::size_t, std::size_t> dims[] = {
      {32, 32}, {16, 16}, {8, 24}, {40, 5}, {1, 7}, {7, 1}, {3, 3}, {32, 32}};
  SpatialEntropyOptions claramunt;
  claramunt.ratio = EntropyRatio::claramunt;
  SpatialEntropyOptions fine;
  fine.std_tolerance = 0.0;
  fine.max_depth = 10;
  const SpatialEntropyOptions options[] = {{}, claramunt, fine};
  for (const auto& [nx, ny] : dims) {
    for (std::size_t trial = 0; trial < 12; ++trial) {
      GridD map(nx, ny, 0.0);
      for (std::size_t i = 0; i < map.size(); ++i) {
        switch (trial % 4) {
          case 0:  // continuous, power-map-like spread
            map[i] = rng.lognormal(0.0, 1.0);
            break;
          case 1:  // sparse: mostly empty bins
            map[i] = rng.uniform() < 0.7 ? 0.0 : rng.uniform(0.0, 5.0);
            break;
          case 2:  // few discrete levels: many ties at the cuts
            map[i] = static_cast<double>(rng.index(4));
            break;
          default:
            map[i] = rng.uniform(-1.0, 1.0);
            break;
        }
      }
      for (const SpatialEntropyOptions& opt : options) {
        SCOPED_TRACE(testing::Message() << nx << "x" << ny << " trial "
                                        << trial);
        expect_matches_reference(map, opt, scratch);
      }
    }
  }
}

TEST(SpatialEntropyKernel, UniformAndSingleClassMapsMatchReference) {
  SpatialEntropyScratch scratch;
  // Warm the scratch with a many-class map first, so the single-class
  // paths below run on dirty buffers.
  GridD ramp(16, 16, 0.0);
  for (std::size_t i = 0; i < ramp.size(); ++i)
    ramp[i] = static_cast<double>(i);
  expect_matches_reference(ramp, {}, scratch);

  expect_matches_reference(GridD(16, 16, 0.0), {}, scratch);
  expect_matches_reference(GridD(12, 5, 3.25), {}, scratch);
  // Spread below the tolerance: one class despite distinct values.
  GridD near_uniform(8, 8, 1.0);
  near_uniform[5] = 1.0 + 1e-12;
  SpatialEntropyOptions coarse;
  coarse.std_tolerance = 1.0;
  expect_matches_reference(near_uniform, coarse, scratch);
  EXPECT_EQ(spatial_entropy_detailed(near_uniform, coarse).classes.size(), 1u);
  // One hot bin in an empty map: a singleton class.
  GridD spike(9, 4, 0.0);
  spike.at(6, 2) = 7.0;
  expect_matches_reference(spike, {}, scratch);
  // Depth cap of zero: no cuts at all.
  SpatialEntropyOptions flat;
  flat.max_depth = 0;
  expect_matches_reference(ramp, flat, scratch);
}

TEST(NestedMeans, UniformValuesProduceNoCuts) {
  const std::vector<double> v(64, 2.5);
  EXPECT_TRUE(nested_means_cuts(v, 0.05, 8).empty());
}

TEST(NestedMeans, TwoClustersProduceOneSeparatingCut) {
  std::vector<double> v;
  for (int i = 0; i < 10; ++i) v.push_back(1.0);
  for (int i = 0; i < 10; ++i) v.push_back(9.0);
  const auto cuts = nested_means_cuts(v, 0.05, 8);
  ASSERT_FALSE(cuts.empty());
  // Some cut must separate the clusters.
  bool separates = false;
  for (const double c : cuts) separates |= (c > 1.0 && c <= 9.0);
  EXPECT_TRUE(separates);
}

TEST(NestedMeans, DepthCapBoundsClassCount) {
  std::vector<double> v;
  for (int i = 0; i < 256; ++i) v.push_back(static_cast<double>(i));
  const auto cuts = nested_means_cuts(v, 0.0, 3);
  EXPECT_LE(cuts.size() + 1, 8u);  // 2^3 classes max
}

TEST(NestedMeans, CutsAreSortedAscending) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(static_cast<double>(i % 17));
  const auto cuts = nested_means_cuts(v, 0.01, 6);
  for (std::size_t i = 1; i < cuts.size(); ++i)
    EXPECT_LE(cuts[i - 1], cuts[i]);
}

TEST(SpatialEntropy, UniformMapHasZeroEntropy) {
  const GridD p(16, 16, 1.0);
  EXPECT_DOUBLE_EQ(spatial_entropy(p), 0.0);
}

TEST(SpatialEntropy, SingleClassReported) {
  const GridD p(8, 8, 3.0);
  const SpatialEntropyResult res = spatial_entropy_detailed(p);
  EXPECT_EQ(res.classes.size(), 1u);
  EXPECT_EQ(res.classes[0].members, 64u);
}

TEST(SpatialEntropy, RatioOrientationsMeasureOppositeThings) {
  // The default (literal Eq. 3) ratio rewards compact, segregated classes
  // -- the configurations with large coherent thermal gradients (high
  // leakage).  Claramunt's orientation rewards mixing.  A checkerboard
  // mixes the two power classes maximally; two separated halves keep
  // them apart.
  GridD checker(16, 16, 0.0);
  GridD halves(16, 16, 0.0);
  for (std::size_t iy = 0; iy < 16; ++iy) {
    for (std::size_t ix = 0; ix < 16; ++ix) {
      checker.at(ix, iy) = ((ix + iy) % 2 == 0) ? 1.0 : 9.0;
      halves.at(ix, iy) = (ix < 8) ? 1.0 : 9.0;
    }
  }
  // Literal Eq. 3 (default): segregated halves score higher.
  EXPECT_GT(spatial_entropy(halves), spatial_entropy(checker));
  // Claramunt orientation: the mixed checkerboard scores higher.
  SpatialEntropyOptions claramunt;
  claramunt.ratio = EntropyRatio::claramunt;
  EXPECT_GT(spatial_entropy(checker, claramunt),
            spatial_entropy(halves, claramunt));
}

TEST(SpatialEntropy, ShannonTermMatchesTwoBalancedClasses) {
  GridD halves(8, 8, 0.0);
  for (std::size_t iy = 0; iy < 8; ++iy)
    for (std::size_t ix = 0; ix < 8; ++ix)
      halves.at(ix, iy) = (ix < 4) ? 1.0 : 9.0;
  const SpatialEntropyResult res = spatial_entropy_detailed(halves);
  // Two perfectly balanced classes: plain Shannon entropy = 1 bit.
  EXPECT_NEAR(res.shannon, 1.0, 1e-9);
  ASSERT_EQ(res.classes.size(), 2u);
  EXPECT_EQ(res.classes[0].members, 32u);
  EXPECT_EQ(res.classes[1].members, 32u);
}

TEST(SpatialEntropy, ClassDistancesSane) {
  GridD halves(8, 8, 0.0);
  for (std::size_t iy = 0; iy < 8; ++iy)
    for (std::size_t ix = 0; ix < 8; ++ix)
      halves.at(ix, iy) = (ix < 4) ? 1.0 : 9.0;
  const SpatialEntropyResult res = spatial_entropy_detailed(halves);
  for (const PowerClass& c : res.classes) {
    EXPECT_GT(c.d_intra, 0.0);
    EXPECT_GT(c.d_inter, 0.0);
    // Members of a compact half-plane class are mutually closer than they
    // are to the other half.
    EXPECT_LT(c.d_intra, c.d_inter);
  }
}

TEST(SpatialEntropy, PaperLiteralRatioIsLargerForCompactClasses) {
  // For compact classes d_inter > d_intra, so the literal Eq. 3 ratio
  // produces a larger value than the Claramunt orientation.
  GridD halves(8, 8, 0.0);
  for (std::size_t iy = 0; iy < 8; ++iy)
    for (std::size_t ix = 0; ix < 8; ++ix)
      halves.at(ix, iy) = (ix < 4) ? 1.0 : 9.0;
  SpatialEntropyOptions claramunt;
  claramunt.ratio = EntropyRatio::claramunt;
  SpatialEntropyOptions literal;
  literal.ratio = EntropyRatio::paper_literal;
  EXPECT_GT(spatial_entropy(halves, literal),
            spatial_entropy(halves, claramunt));
  // And for the perfectly compact split the literal entropy exceeds the
  // plain Shannon entropy (ratio > 1), as in the paper's S ~ 2.7..4.5
  // magnitudes.
  EXPECT_GT(spatial_entropy(halves, literal),
            spatial_entropy_detailed(halves, literal).shannon);
}

TEST(SpatialEntropy, MoreClassesMoreEntropyForScatteredValues) {
  // A map with 4 interleaved regimes should exceed one with 2.
  GridD two(16, 16, 0.0), four(16, 16, 0.0);
  for (std::size_t iy = 0; iy < 16; ++iy) {
    for (std::size_t ix = 0; ix < 16; ++ix) {
      two.at(ix, iy) = ((ix + iy) % 2 == 0) ? 1.0 : 9.0;
      four.at(ix, iy) = 1.0 + 3.0 * static_cast<double>((ix + iy) % 4);
    }
  }
  EXPECT_GT(spatial_entropy(four), spatial_entropy(two));
}

TEST(SpatialEntropy, InsensitiveToUniformScaling) {
  // Nested means partitions scale with the data, so a uniformly scaled
  // map yields the same classes and the same entropy.
  GridD p(8, 8, 0.0);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<double>(i % 5);
  GridD scaled = p;
  scaled *= 42.0;
  EXPECT_NEAR(spatial_entropy(p), spatial_entropy(scaled), 1e-9);
}

TEST(SpatialEntropy, SegregatedGradientScoresHigherThanScatteredMix) {
  // Under the default (literal) orientation, a coarse segregated
  // gradient -- the leaky configuration per Sec. 3 finding (i) -- scores
  // HIGHER spatial entropy than the same two power levels scattered
  // bin-by-bin (which thermal diffusion decorrelates).  This is exactly
  // the "lower entropy ~ lower correlation" trend of Sec. 4.2.
  GridD grouped(16, 16, 0.0), scattered(16, 16, 0.0);
  for (std::size_t iy = 0; iy < 16; ++iy) {
    for (std::size_t ix = 0; ix < 16; ++ix) {
      grouped.at(ix, iy) = (iy < 8) ? 2.0 : 8.0;
      scattered.at(ix, iy) = ((ix * 7 + iy * 13) % 2 == 0) ? 2.0 : 8.0;
    }
  }
  EXPECT_GT(spatial_entropy(grouped), spatial_entropy(scattered));
}

}  // namespace
}  // namespace tsc3d::leakage
