// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Spatial entropy of power maps (Sec. 4.2, Eq. 3), derived from
// Claramunt's spatial form of diversity [24].  The power-map bins are
// classified into similar-value classes by nested-means partitioning
// ("the power values are first sorted, then recursively bi-partitioned
// with the current mean defining the cut, and the partitioning proceeds
// until the standard deviation within any class approaches zero"), and
// each class's Shannon term is weighted by a ratio of its average spatial
// inter-class and intra-class Manhattan distances.
//
// NOTE on the ratio orientation: the paper's Eq. 3 prints d_inter/d_intra,
// whereas Claramunt's original diversity uses d_intra/d_inter.  The two
// orientations measure opposite things: the literal printed ratio grows
// for COMPACT, SEGREGATED power classes (similar powers grouped, class
// groups far apart) -- exactly the configurations that produce large
// coherent thermal gradients and therefore high leakage (Sec. 3 finding
// (i)); Claramunt's orientation instead grows for spatially MIXED
// classes, which thermal diffusion smooths out, i.e. it anti-correlates
// with leakage.  The paper's empirical claim ("the lower the spatial
// entropy, the lower the power-temperature correlation", Sec. 4.2) holds
// for the literal ratio, which our ablation reproduces
// (bench/ablation_entropy_trend).  We therefore default to the literal
// Eq. 3 and keep Claramunt's orientation selectable for comparison.
#pragma once

#include <cstddef>
#include <vector>

#include "core/grid.hpp"

namespace tsc3d::leakage {

/// Which distance-ratio weighting to apply to each class's entropy term.
enum class EntropyRatio {
  claramunt,      ///< d_intra / d_inter (reference [24])
  paper_literal,  ///< d_inter / d_intra (as printed in Eq. 3; default)
};

struct SpatialEntropyOptions {
  EntropyRatio ratio = EntropyRatio::paper_literal;
  /// Nested-means recursion stops when a class's standard deviation drops
  /// below `std_tolerance` times the full map's standard deviation.
  double std_tolerance = 0.05;
  /// Hard cap on recursion depth (at most 2^depth classes).
  std::size_t max_depth = 8;
};

/// One similar-power class produced by nested-means partitioning.
struct PowerClass {
  double lo = 0.0;              ///< value range [lo, hi)
  double hi = 0.0;
  std::size_t members = 0;      ///< number of bins in the class
  double d_intra = 0.0;         ///< avg Manhattan distance within class [bins]
  double d_inter = 0.0;         ///< avg Manhattan distance to other classes
};

/// Full result of a spatial-entropy evaluation, for inspection/tests.
struct SpatialEntropyResult {
  double entropy = 0.0;                ///< S_d of Eq. 3
  double shannon = 0.0;                ///< unweighted Shannon entropy [bit]
  std::vector<PowerClass> classes;
};

/// Working memory of one spatial-entropy evaluation.  Every buffer keeps
/// its capacity between calls, so repeated evaluations at one grid size
/// allocate nothing (the annealing loop scores entropy on every move).
/// Not thread-safe: one scratch per concurrent caller.
struct SpatialEntropyScratch {
  std::vector<double> sorted;  ///< sorted copy of the map's values
  std::vector<double> cuts;    ///< nested-means cut points, ascending
  std::vector<double> hist_x;  ///< per-class column histograms, class-major
  std::vector<double> hist_y;  ///< per-class row histograms, class-major
  std::vector<std::size_t> members;  ///< bins per class
  std::vector<double> all_x, all_y;  ///< histograms over all bins
  /// Prefix counts / weighted-coordinate sums of all_x and all_y, built
  /// once per call and shared by every class's inter-class distance.
  std::vector<double> all_cnt_x, all_wgt_x, all_cnt_y, all_wgt_y;
  std::vector<double> cnt, wgt;  ///< prefix sums of one class histogram
};

/// Compute the spatial entropy of one die's power map.
[[nodiscard]] SpatialEntropyResult spatial_entropy_detailed(
    const GridD& power, const SpatialEntropyOptions& options = {});

/// Convenience wrapper returning only S_d (local scratch).
[[nodiscard]] double spatial_entropy(const GridD& power,
                                     const SpatialEntropyOptions& options = {});

/// S_d through caller-owned scratch: bitwise-equal to the overloads above
/// (one kernel serves all three), allocation-free once the scratch has
/// seen the grid size and class count.
[[nodiscard]] double spatial_entropy(const GridD& power,
                                     const SpatialEntropyOptions& options,
                                     SpatialEntropyScratch& scratch);

/// Nested-means class boundaries for a sorted copy of `values`: returns
/// cut points (ascending) delimiting the classes.  Exposed for testing.
[[nodiscard]] std::vector<double> nested_means_cuts(
    std::vector<double> values, double std_tolerance, std::size_t max_depth);

}  // namespace tsc3d::leakage
