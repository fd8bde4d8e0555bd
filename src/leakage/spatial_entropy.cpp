#include "leakage/spatial_entropy.hpp"

#include <algorithm>
#include <cmath>

namespace tsc3d::leakage {

namespace {

/// Mean and standard deviation of values[lo, hi).
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
  // First element >= mean becomes the start of the upper class.
  const auto it = std::lower_bound(sorted.begin() + static_cast<long>(lo),
                                   sorted.begin() + static_cast<long>(hi),
                                   mean);
  const auto cut = static_cast<std::size_t>(it - sorted.begin());
  if (cut == lo || cut == hi) return;  // degenerate: all on one side
  cuts.push_back(sorted[cut]);
  nested_means_recurse(sorted, lo, cut, depth + 1, std_floor, max_depth, cuts);
  nested_means_recurse(sorted, cut, hi, depth + 1, std_floor, max_depth, cuts);
}

/// Sort `values` into `sorted` and write the ascending nested-means cut
/// points into `cuts`; both buffers keep their capacity across calls.
void nested_means_cuts_into(const std::vector<double>& values,
                            double std_tolerance, std::size_t max_depth,
                            std::vector<double>& sorted,
                            std::vector<double>& cuts) {
  cuts.clear();
  if (values.empty()) return;
  sorted.assign(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const auto [mean_all, sd_all] = mean_std(sorted, 0, sorted.size());
  (void)mean_all;
  nested_means_recurse(sorted, 0, sorted.size(), 0, std_tolerance * sd_all,
                       max_depth, cuts);
  std::sort(cuts.begin(), cuts.end());
}

/// Prefix counts cnt[0..n] and prefix weighted-coordinate sums wgt[0..n]
/// of the 1D coordinate histogram c[0, n).
void prefix_sums(const double* c, std::size_t n, double* cnt, double* wgt) {
  cnt[0] = 0.0;
  wgt[0] = 0.0;
  for (std::size_t x = 0; x < n; ++x) {
    cnt[x + 1] = cnt[x] + c[x];
    wgt[x + 1] = wgt[x] + c[x] * static_cast<double>(x);
  }
}

/// Ordered pair-distance sum  sum_x sum_x' cA[x] * cB[x'] * |x - x'|
/// over 1D coordinate histograms, in O(n) from B's prefix sums.
double ordered_pair_dist(const double* c_a, const double* cnt,
                         const double* wgt, std::size_t n) {
  const double cnt_tot = cnt[n];
  const double wgt_tot = wgt[n];
  double total = 0.0;
  for (std::size_t x = 0; x < n; ++x) {
    if (c_a[x] == 0.0) continue;
    const auto xf = static_cast<double>(x);
    // sum over x' <= x of (x - x') plus sum over x' > x of (x' - x)
    const double below = xf * cnt[x + 1] - wgt[x + 1];
    const double above = (wgt_tot - wgt[x + 1]) - xf * (cnt_tot - cnt[x + 1]);
    total += c_a[x] * (below + above);
  }
  return total;
}

/// Grow `v` to at least `n` elements, keeping its capacity.
template <typename T>
void ensure_size(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// The one spatial-entropy kernel: returns S_d and, when `detail` is set,
/// also fills its Shannon sum and per-class records.
double entropy_kernel(const GridD& power, const SpatialEntropyOptions& options,
                      SpatialEntropyScratch& s,
                      SpatialEntropyResult* detail) {
  const std::size_t nx = power.nx();
  const std::size_t ny = power.ny();
  const std::size_t n = nx * ny;

  nested_means_cuts_into(power.data(), options.std_tolerance,
                         options.max_depth, s.sorted, s.cuts);
  const std::vector<double>& cuts = s.cuts;
  const std::size_t num_classes = cuts.size() + 1;
  if (num_classes < 2) {
    // A single class: the map is (near-)uniform, zero entropy.
    if (detail != nullptr) {
      PowerClass c;
      c.lo = power.min();
      c.hi = power.max();
      c.members = n;
      detail->classes.push_back(c);
    }
    return 0.0;
  }

  // Assign each bin to its class and build per-class coordinate histograms.
  s.hist_x.assign(num_classes * nx, 0.0);
  s.hist_y.assign(num_classes * ny, 0.0);
  s.members.assign(num_classes, 0);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double v = power.at(ix, iy);
      const auto it = std::upper_bound(cuts.begin(), cuts.end(), v);
      const auto cls = static_cast<std::size_t>(it - cuts.begin());
      s.hist_x[cls * nx + ix] += 1.0;
      s.hist_y[cls * ny + iy] += 1.0;
      ++s.members[cls];
    }
  }

  // Histogram of all bins (for the inter-class distances) and its prefix
  // sums, shared by every class.
  s.all_x.assign(nx, 0.0);
  s.all_y.assign(ny, 0.0);
  for (std::size_t c = 0; c < num_classes; ++c) {
    for (std::size_t x = 0; x < nx; ++x) s.all_x[x] += s.hist_x[c * nx + x];
    for (std::size_t y = 0; y < ny; ++y) s.all_y[y] += s.hist_y[c * ny + y];
  }
  ensure_size(s.all_cnt_x, nx + 1);
  ensure_size(s.all_wgt_x, nx + 1);
  ensure_size(s.all_cnt_y, ny + 1);
  ensure_size(s.all_wgt_y, ny + 1);
  prefix_sums(s.all_x.data(), nx, s.all_cnt_x.data(), s.all_wgt_x.data());
  prefix_sums(s.all_y.data(), ny, s.all_cnt_y.data(), s.all_wgt_y.data());
  ensure_size(s.cnt, std::max(nx, ny) + 1);
  ensure_size(s.wgt, std::max(nx, ny) + 1);

  const auto n_total = static_cast<double>(n);
  double entropy = 0.0;
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (s.members[c] == 0) continue;
    PowerClass pc;
    pc.members = s.members[c];
    const auto n_c = static_cast<double>(s.members[c]);
    const double* hx = s.hist_x.data() + c * nx;
    const double* hy = s.hist_y.data() + c * ny;

    // Intra: ordered pair sums count every unordered pair twice.
    prefix_sums(hx, nx, s.cnt.data(), s.wgt.data());
    const double intra_x =
        ordered_pair_dist(hx, s.cnt.data(), s.wgt.data(), nx);
    prefix_sums(hy, ny, s.cnt.data(), s.wgt.data());
    const double intra_y =
        ordered_pair_dist(hy, s.cnt.data(), s.wgt.data(), ny);
    const double intra_sum = intra_x + intra_y;
    const double intra_pairs = n_c * (n_c - 1.0);
    pc.d_intra = intra_pairs > 0.0 ? intra_sum / intra_pairs : 0.0;

    // Inter: distances from class members to all non-members.
    const double to_all =
        ordered_pair_dist(hx, s.all_cnt_x.data(), s.all_wgt_x.data(), nx) +
        ordered_pair_dist(hy, s.all_cnt_y.data(), s.all_wgt_y.data(), ny);
    const double inter_sum = to_all - intra_sum;
    const double inter_pairs = n_c * (n_total - n_c);
    pc.d_inter = inter_pairs > 0.0 ? inter_sum / inter_pairs : 0.0;

    const double p = n_c / n_total;
    const double shannon_term = -p * std::log2(p);

    double weight = 0.0;
    switch (options.ratio) {
      case EntropyRatio::claramunt:
        weight = pc.d_inter > 0.0 ? pc.d_intra / pc.d_inter : 0.0;
        break;
      case EntropyRatio::paper_literal: {
        // Guard singleton classes: treat a degenerate intra distance as one
        // bin pitch so the printed ratio stays finite.
        const double d_intra = pc.d_intra > 0.0 ? pc.d_intra : 1.0;
        weight = pc.d_inter / d_intra;
        break;
      }
    }
    entropy += weight * shannon_term;
    if (detail != nullptr) {
      pc.lo = c == 0 ? power.min() : cuts[c - 1];
      pc.hi = c == num_classes - 1 ? power.max() : cuts[c];
      detail->shannon += shannon_term;
      detail->classes.push_back(pc);
    }
  }
  return entropy;
}

}  // namespace

std::vector<double> nested_means_cuts(std::vector<double> values,
                                      double std_tolerance,
                                      std::size_t max_depth) {
  std::vector<double> sorted, cuts;
  nested_means_cuts_into(values, std_tolerance, max_depth, sorted, cuts);
  return cuts;
}

SpatialEntropyResult spatial_entropy_detailed(
    const GridD& power, const SpatialEntropyOptions& options) {
  SpatialEntropyResult result;
  SpatialEntropyScratch scratch;
  result.entropy = entropy_kernel(power, options, scratch, &result);
  return result;
}

double spatial_entropy(const GridD& power,
                       const SpatialEntropyOptions& options) {
  SpatialEntropyScratch scratch;
  return entropy_kernel(power, options, scratch, nullptr);
}

double spatial_entropy(const GridD& power, const SpatialEntropyOptions& options,
                       SpatialEntropyScratch& scratch) {
  return entropy_kernel(power, options, scratch, nullptr);
}

}  // namespace tsc3d::leakage
