#include "benchgen/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/rng.hpp"

namespace tsc3d::benchgen {

namespace {

/// Geometric net degree >= 2: P(deg = 2 + k) = p (1-p)^k, capped at 12.
std::size_t sample_degree(Rng& rng, double p) {
  std::size_t k = 0;
  while (k < 10 && !rng.bernoulli(p)) ++k;
  return 2 + k;
}

}  // namespace

Floorplan3D generate(const BenchmarkSpec& spec, std::uint64_t seed,
                     const GeneratorOptions& options) {
  Rng rng(seed ^ std::hash<std::string>{}(spec.name));

  TechnologyConfig tech;
  tech.num_dies = 2;
  tech.die_width_um = spec.die_edge_um();
  tech.die_height_um = spec.die_edge_um();
  Floorplan3D fp(tech);

  const std::size_t n = spec.total_modules();
  const double total_area_target =
      options.target_utilization * 2.0 * tech.die_area_um2();

  // --- module areas: lognormal, normalized to the target utilization ----
  std::vector<double> areas(n, 0.0);
  double area_sum = 0.0;
  for (double& a : areas) {
    a = rng.lognormal(0.0, options.area_sigma);
    area_sum += a;
  }
  for (double& a : areas) a *= total_area_target / area_sum;

  // --- power regimes: a few density classes spread over the modules -----
  // Densities rise geometrically from coolest to hottest regime; modules
  // are assigned round-robin after shuffling so regimes are independent of
  // module size.
  std::vector<double> regime_density(options.power_regimes, 1.0);
  for (std::size_t r = 1; r < options.power_regimes; ++r) {
    regime_density[r] =
        std::pow(options.regime_spread,
                 static_cast<double>(r) /
                     static_cast<double>(options.power_regimes - 1));
  }
  std::vector<std::size_t> regime_of(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    regime_of[i] = i % options.power_regimes;
  rng.shuffle(regime_of);

  // Raw power ~ area * regime density * (1 +- 20% lognormal jitter),
  // normalized to the spec's total power at 1.0 V.
  std::vector<double> powers(n, 0.0);
  double power_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    powers[i] =
        areas[i] * regime_density[regime_of[i]] * rng.lognormal(0.0, 0.2);
    power_sum += powers[i];
  }
  for (double& p : powers) p *= spec.power_w / power_sum;

  // --- modules -----------------------------------------------------------
  fp.modules().reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Module m;
    m.id = i;
    const bool hard = i < spec.hard_modules;
    m.name = (hard ? "hb" : "sb") + std::to_string(i);
    m.soft = !hard;
    m.area_um2 = areas[i];
    if (hard) {
      // Hard blocks have a fixed aspect ratio in [0.5, 2].
      const double ar = rng.uniform(0.5, 2.0);
      m.min_aspect = ar;
      m.max_aspect = ar;
    } else {
      m.min_aspect = 1.0 / 3.0;
      m.max_aspect = 3.0;
    }
    m.power_w = powers[i];
    // Intrinsic delay loosely grows with the module's linear dimension.
    m.intrinsic_delay_ns =
        0.05 + 0.15 * std::sqrt(areas[i] / (total_area_target /
                                            static_cast<double>(n))) *
                   rng.uniform(0.5, 1.5);
    // Nominal shape: near-square at the middle of the aspect range.
    const double ar = std::sqrt(m.min_aspect * m.max_aspect);
    m.shape.w = std::sqrt(m.area_um2 * ar);
    m.shape.h = m.area_um2 / m.shape.w;
    m.die = i % 2;  // alternating initial assignment; floorplanner decides
    m.voltage_index = 1;  // 1.0 V nominal
    fp.modules().push_back(std::move(m));
  }

  // --- terminals: spread along the four edges of the bottom die ---------
  fp.terminals().reserve(spec.num_terminals);
  for (std::size_t t = 0; t < spec.num_terminals; ++t) {
    Terminal term;
    term.name = "p" + std::to_string(t);
    term.die = 0;
    const double frac = rng.uniform();
    const double w = tech.die_width_um;
    const double h = tech.die_height_um;
    switch (t % 4) {
      case 0: term.position = {frac * w, 0.0}; break;
      case 1: term.position = {frac * w, h}; break;
      case 2: term.position = {0.0, frac * h}; break;
      default: term.position = {w, frac * h}; break;
    }
    fp.terminals().push_back(std::move(term));
  }

  // --- nets: locality-biased connectivity -------------------------------
  // A net picks a random "anchor" module, then adds further pins from a
  // window around the anchor's index (module indices act as a proxy for
  // logical proximity, as in netlist clustering).
  fp.nets().reserve(spec.num_nets);
  for (std::size_t netno = 0; netno < spec.num_nets; ++netno) {
    Net net;
    net.id = netno;
    const std::size_t degree = sample_degree(rng, options.min_net_degree_p);
    const std::size_t anchor = rng.index(n);
    std::vector<std::size_t> chosen{anchor};
    const std::size_t window = std::max<std::size_t>(8, n / 10);
    // Distinct indices of the clamped window: a net anchored near either
    // end of the module list reaches fewer than 2 * window + 1 modules,
    // possibly fewer than its degree.
    const std::size_t window_lo = anchor > window ? anchor - window : 0;
    const std::size_t reachable =
        std::min(n - 1, anchor + window) - window_lo + 1;
    while (chosen.size() < degree) {
      // Every reachable index is taken: stop short of the degree.  Only
      // for window < n -- tiny designs keep the duplicate-draw break below.
      if (window < n && chosen.size() == reachable) break;
      const long offset =
          static_cast<long>(rng.index(2 * window + 1)) -
          static_cast<long>(window);
      long idx = static_cast<long>(anchor) + offset;
      idx = std::clamp<long>(idx, 0, static_cast<long>(n) - 1);
      const auto candidate = static_cast<std::size_t>(idx);
      if (std::find(chosen.begin(), chosen.end(), candidate) ==
          chosen.end()) {
        chosen.push_back(candidate);
      } else if (window >= n) {
        break;  // tiny designs: cannot fill the degree without duplicates
      }
    }
    for (const std::size_t mi : chosen) {
      NetPin pin;
      pin.module = mi;
      net.pins.push_back(pin);
    }
    if (!fp.terminals().empty() &&
        rng.bernoulli(options.terminal_net_fraction)) {
      NetPin pin;
      pin.terminal = rng.index(fp.terminals().size());
      net.pins.push_back(pin);
    }
    fp.nets().push_back(std::move(net));
  }

  return fp;
}

Floorplan3D generate(const std::string& name, std::uint64_t seed,
                     const GeneratorOptions& options) {
  return generate(spec_by_name(name), seed, options);
}

}  // namespace tsc3d::benchgen
