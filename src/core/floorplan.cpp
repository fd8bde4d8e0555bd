#include "floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace tsc3d {

std::vector<std::size_t> Floorplan3D::modules_on_die(std::size_t d) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    if (modules_[i].die == d) out.push_back(i);
  }
  return out;
}

double Floorplan3D::effective_power(std::size_t i) const {
  const Module& m = modules_.at(i);
  const auto& levels = tech_.voltages;
  const std::size_t vi = std::min(m.voltage_index, levels.size() - 1);
  return m.power_w * levels[vi].power_scale;
}

double Floorplan3D::total_power() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < modules_.size(); ++i) sum += effective_power(i);
  return sum;
}

double Floorplan3D::utilization(std::size_t d) const {
  double area = 0.0;
  for (const Module& m : modules_) {
    if (m.die == d) area += m.shape.area();
  }
  return area / tech_.die_area_um2();
}

GridD Floorplan3D::power_map(std::size_t d, std::size_t nx, std::size_t ny,
                             const std::vector<double>* module_power_w) const {
  GridD map(nx, ny, 0.0);
  const double bw = tech_.die_width_um / static_cast<double>(nx);
  const double bh = tech_.die_height_um / static_cast<double>(ny);
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    const Module& m = modules_[i];
    if (m.die != d) continue;
    const double p =
        module_power_w != nullptr ? (*module_power_w)[i] : effective_power(i);
    const double a = m.shape.area();
    if (p <= 0.0 || a <= 0.0) continue;
    const double density = p / a;  // W per um^2
    // Bin range touched by the module; distribute by exact overlap area.
    const auto ix0 = static_cast<std::size_t>(
        std::clamp(m.shape.x / bw, 0.0, static_cast<double>(nx - 1)));
    const auto iy0 = static_cast<std::size_t>(
        std::clamp(m.shape.y / bh, 0.0, static_cast<double>(ny - 1)));
    const auto ix1 = static_cast<std::size_t>(std::clamp(
        m.shape.right() / bw, 0.0, static_cast<double>(nx - 1)));
    const auto iy1 = static_cast<std::size_t>(std::clamp(
        m.shape.top() / bh, 0.0, static_cast<double>(ny - 1)));
    for (std::size_t iy = iy0; iy <= iy1; ++iy) {
      for (std::size_t ix = ix0; ix <= ix1; ++ix) {
        const Rect bin{static_cast<double>(ix) * bw,
                       static_cast<double>(iy) * bh, bw, bh};
        const double ov = overlap_area(bin, m.shape);
        if (ov > 0.0) map.at(ix, iy) += density * ov;
      }
    }
  }
  return map;
}

GridD Floorplan3D::power_density_map(std::size_t d, std::size_t nx,
                                     std::size_t ny) const {
  GridD map = power_map(d, nx, ny);
  const double bin_area = (tech_.die_width_um / static_cast<double>(nx)) *
                          (tech_.die_height_um / static_cast<double>(ny));
  map *= 1.0 / bin_area;
  return map;
}

Rect Floorplan3D::tsv_island_rect(const Tsv& t) const {
  const double cell = tech_.tsv.cell_edge_um();
  // Islands pack TSVs at minimal pitch into a near-square footprint.
  const double cols =
      std::ceil(std::sqrt(static_cast<double>(std::max<std::size_t>(t.count, 1))));
  const double edge_x = cols * cell;
  const double rows = std::ceil(static_cast<double>(t.count) / cols);
  const double edge_y = rows * cell;
  return Rect{t.position.x - edge_x / 2.0, t.position.y - edge_y / 2.0, edge_x,
              edge_y};
}

GridD Floorplan3D::tsv_density_map(std::size_t nx, std::size_t ny,
                                   bool include_dummy) const {
  GridD map(nx, ny, 0.0);
  const double bw = tech_.die_width_um / static_cast<double>(nx);
  const double bh = tech_.die_height_um / static_cast<double>(ny);
  const double bin_area = bw * bh;
  for (const Tsv& t : tsvs_) {
    if (!include_dummy && t.kind == TsvKind::dummy) continue;
    const Rect island = tsv_island_rect(t);
    const auto ix0 = static_cast<std::size_t>(
        std::clamp(island.x / bw, 0.0, static_cast<double>(nx - 1)));
    const auto iy0 = static_cast<std::size_t>(
        std::clamp(island.y / bh, 0.0, static_cast<double>(ny - 1)));
    const auto ix1 = static_cast<std::size_t>(std::clamp(
        island.right() / bw, 0.0, static_cast<double>(nx - 1)));
    const auto iy1 = static_cast<std::size_t>(std::clamp(
        island.top() / bh, 0.0, static_cast<double>(ny - 1)));
    for (std::size_t iy = iy0; iy <= iy1; ++iy) {
      for (std::size_t ix = ix0; ix <= ix1; ++ix) {
        const Rect bin{static_cast<double>(ix) * bw,
                       static_cast<double>(iy) * bh, bw, bh};
        map.at(ix, iy) += overlap_area(bin, island) / bin_area;
      }
    }
  }
  for (auto& v : map) v = std::min(v, 1.0);
  return map;
}

std::size_t Floorplan3D::tsv_count(TsvKind kind) const {
  std::size_t n = 0;
  for (const Tsv& t : tsvs_) {
    if (t.kind == kind) n += t.count;
  }
  return n;
}

double Floorplan3D::net_box_len(const Net& net) const {
  double x0 = 0.0, x1 = 0.0, y0 = 0.0, y1 = 0.0;
  bool first = true;
  for (const NetPin& pin : net.pins) {
    Point p;
    if (pin.is_terminal()) {
      p = terminals_.at(pin.terminal).position;
    } else {
      p = modules_.at(pin.module).shape.center();
    }
    if (first) {
      x0 = x1 = p.x;
      y0 = y1 = p.y;
      first = false;
    } else {
      x0 = std::min(x0, p.x);
      x1 = std::max(x1, p.x);
      y0 = std::min(y0, p.y);
      y1 = std::max(y1, p.y);
    }
  }
  return (x1 - x0) + (y1 - y0);
}

double Floorplan3D::net_hpwl(const Net& net) const {
  if (net.pins.size() < 2) return 0.0;
  return net.weight * net_box_len(net);
}

double Floorplan3D::hpwl() const {
  // Full recompute, summing per-net boxes in canonical net order.  The
  // incremental hpwl_cached() recomputes only dirty nets with the SAME
  // per-net arithmetic and re-sums in the SAME order, so the two are
  // bitwise-equal whenever the tracking invariant holds.
  double total = 0.0;
  for (const Net& net : nets_) total += net_hpwl(net);
  return total;
}

// --- incremental layout tracking -----------------------------------------

void Floorplan3D::ensure_net_index() const {
  if (net_index_ready_ && nets_of_module_.size() == modules_.size() &&
      net_epoch_.size() == nets_.size())
    return;
  nets_of_module_.assign(modules_.size(), {});
  for (std::size_t n = 0; n < nets_.size(); ++n) {
    for (const NetPin& pin : nets_[n].pins) {
      if (!pin.is_terminal() && pin.module < modules_.size())
        nets_of_module_[pin.module].push_back(n);
    }
  }
  // Fresh epochs strictly above anything handed out before, so every
  // external per-net cache keyed on old epochs misses after a rebuild.
  net_epoch_.assign(nets_.size(), ++layout_epoch_);
  net_die_epoch_.assign(nets_.size(), layout_epoch_);
  net_index_ready_ = true;
}

void Floorplan3D::ensure_die_caches() const {
  if (die_bounds_.size() != tech_.num_dies) {
    die_bounds_.assign(tech_.num_dies, DieBounds{});
    die_bounds_valid_.assign(tech_.num_dies, false);
    die_stamp_.assign(tech_.num_dies, LayoutStamp{});
  }
}

void Floorplan3D::note_module_moved(std::size_t i, bool die_changed) {
  ensure_net_index();
  ensure_die_caches();
  ++layout_epoch_;
  for (const std::size_t n : nets_of_module_[i]) {
    if (trial_active_) trial_save_net(n);
    net_epoch_[n] = layout_epoch_;
    if (die_changed) net_die_epoch_[n] = layout_epoch_;
  }
  const std::size_t d = modules_[i].die;
  if (d < die_bounds_valid_.size()) {
    if (trial_active_) trial_save_die(d);
    die_bounds_valid_[d] = false;
  }
}

const std::vector<std::size_t>& Floorplan3D::nets_of_module(
    std::size_t i) const {
  ensure_net_index();
  return nets_of_module_.at(i);
}

std::uint64_t Floorplan3D::net_epoch(std::size_t n) const {
  ensure_net_index();
  return net_epoch_.at(n);
}

std::uint64_t Floorplan3D::net_die_epoch(std::size_t n) const {
  ensure_net_index();
  return net_die_epoch_.at(n);
}

const std::vector<std::uint64_t>& Floorplan3D::net_epochs() const {
  ensure_net_index();
  return net_epoch_;
}

const std::vector<std::uint64_t>& Floorplan3D::net_die_epochs() const {
  ensure_net_index();
  return net_die_epoch_;
}

double Floorplan3D::hpwl_cached() {
  ensure_net_index();
  if (net_hpwl_cache_.size() != nets_.size()) {
    net_hpwl_cache_.assign(nets_.size(), 0.0);
    net_len_cache_.assign(nets_.size(), 0.0);
    net_hpwl_epoch_.assign(nets_.size(), 0);
  }
  double total = 0.0;
  for (std::size_t n = 0; n < nets_.size(); ++n) {
    if (net_hpwl_epoch_[n] != net_epoch_[n]) {
      if (trial_active_) trial_save_net(n);
      // One scan serves both the weighted HPWL term and, via
      // net_length_cached(), the timing engine's wire length.
      const double len = net_box_len(nets_[n]);
      net_len_cache_[n] = len;
      net_hpwl_cache_[n] =
          nets_[n].pins.size() < 2 ? 0.0 : nets_[n].weight * len;
      net_hpwl_epoch_[n] = net_epoch_[n];
    }
    total += net_hpwl_cache_[n];
  }
  return total;
}

bool Floorplan3D::net_length_cached(std::size_t n, double& len_um) const {
  if (n >= net_hpwl_epoch_.size() || n >= net_len_cache_.size() ||
      n >= net_epoch_.size() || net_hpwl_epoch_[n] != net_epoch_[n])
    return false;
  len_um = net_len_cache_[n];
  return true;
}

Floorplan3D::DieBounds Floorplan3D::die_bounds(std::size_t d) const {
  ensure_die_caches();
  if (!die_bounds_valid_.at(d)) {
    if (trial_active_) trial_save_die(d);
    DieBounds b;
    for (const Module& m : modules_) {
      if (m.die != d) continue;
      b.width = std::max(b.width, m.shape.right());
      b.height = std::max(b.height, m.shape.top());
    }
    die_bounds_[d] = b;
    die_bounds_valid_[d] = true;
  }
  return die_bounds_[d];
}

void Floorplan3D::set_die_bounds(std::size_t d, double width, double height) {
  ensure_die_caches();
  if (trial_active_) trial_save_die(d);
  die_bounds_.at(d) = DieBounds{width, height};
  die_bounds_valid_[d] = true;
}

Floorplan3D::LayoutStamp Floorplan3D::layout_stamp(std::size_t d) const {
  ensure_die_caches();
  return d < die_stamp_.size() ? die_stamp_[d] : LayoutStamp{};
}

bool Floorplan3D::layout_stamp_matches(std::size_t d, std::uint64_t family,
                                       std::uint64_t version) const {
  ensure_die_caches();
  if (family == 0 || d >= die_stamp_.size()) return false;
  return die_stamp_[d].family == family && die_stamp_[d].version == version;
}

void Floorplan3D::set_layout_stamp(std::size_t d, std::uint64_t family,
                                   std::uint64_t version) {
  ensure_die_caches();
  if (d < die_stamp_.size()) {
    if (trial_active_) trial_save_die(d);
    die_stamp_[d] = LayoutStamp{family, version};
  }
}

// --- trial (speculative) layout mutation ----------------------------------

void Floorplan3D::begin_trial() {
  if (trial_active_)
    throw std::logic_error("Floorplan3D::begin_trial: trial already open");
  // Build the lazy structures now: a mid-trial rebuild would reassign
  // every net epoch and could not be unwound.
  ensure_net_index();
  ensure_die_caches();
  if (trial_mark_module_.size() != modules_.size())
    trial_mark_module_.assign(modules_.size(), 0);
  if (trial_mark_net_.size() != nets_.size())
    trial_mark_net_.assign(nets_.size(), 0);
  if (trial_mark_die_.size() != tech_.num_dies)
    trial_mark_die_.assign(tech_.num_dies, 0);
  ++trial_id_;
  trial_modules_.clear();
  trial_nets_.clear();
  trial_dies_.clear();
  trial_active_ = true;
}

void Floorplan3D::commit_trial() {
  if (!trial_active_)
    throw std::logic_error("Floorplan3D::commit_trial: no trial open");
  trial_active_ = false;
  trial_modules_.clear();
  trial_nets_.clear();
  trial_dies_.clear();
}

void Floorplan3D::rollback_trial() {
  if (!trial_active_)
    throw std::logic_error("Floorplan3D::rollback_trial: no trial open");
  trial_active_ = false;
  for (const TrialModule& jm : trial_modules_) {
    modules_[jm.i].shape = jm.shape;
    modules_[jm.i].die = jm.die;
  }
  for (const TrialNet& jn : trial_nets_) {
    net_epoch_[jn.n] = jn.epoch;
    net_die_epoch_[jn.n] = jn.die_epoch;
    if (jn.n < net_hpwl_epoch_.size()) {
      if (jn.had_hpwl) {
        net_hpwl_epoch_[jn.n] = jn.hpwl_epoch;
        net_hpwl_cache_[jn.n] = jn.hpwl;
        net_len_cache_[jn.n] = jn.len;
      } else {
        // The cache rows were created mid-trial; mark never-computed so
        // the next hpwl_cached() recomputes from the restored positions.
        net_hpwl_epoch_[jn.n] = 0;
      }
    }
  }
  for (const TrialDie& jd : trial_dies_) {
    die_bounds_[jd.d] = jd.bounds;
    die_bounds_valid_[jd.d] = jd.bounds_valid;
    die_stamp_[jd.d] = jd.stamp;
  }
  trial_modules_.clear();
  trial_nets_.clear();
  trial_dies_.clear();
}

void Floorplan3D::trial_save_module(std::size_t i) {
  if (!trial_active_ || trial_mark_module_[i] == trial_id_) return;
  trial_mark_module_[i] = trial_id_;
  trial_modules_.push_back(
      TrialModule{i, modules_[i].shape, modules_[i].die});
}

void Floorplan3D::trial_save_net(std::size_t n) const {
  if (trial_mark_net_[n] == trial_id_) return;
  trial_mark_net_[n] = trial_id_;
  TrialNet jn;
  jn.n = n;
  jn.epoch = net_epoch_[n];
  jn.die_epoch = net_die_epoch_[n];
  if (n < net_hpwl_epoch_.size()) {
    jn.had_hpwl = true;
    jn.hpwl_epoch = net_hpwl_epoch_[n];
    jn.hpwl = net_hpwl_cache_[n];
    jn.len = net_len_cache_[n];
  }
  trial_nets_.push_back(jn);
}

void Floorplan3D::trial_save_die(std::size_t d) const {
  if (trial_mark_die_[d] == trial_id_) return;
  trial_mark_die_[d] = trial_id_;
  trial_dies_.push_back(
      TrialDie{d, die_bounds_[d], die_bounds_valid_[d] != false,
               die_stamp_[d]});
}

void Floorplan3D::invalidate_layout_caches() {
  if (trial_active_)
    throw std::logic_error(
        "Floorplan3D::invalidate_layout_caches: trial open -- commit or "
        "roll back first");
  net_index_ready_ = false;
  nets_of_module_.clear();
  net_epoch_.clear();
  net_die_epoch_.clear();
  net_hpwl_cache_.clear();
  net_len_cache_.clear();
  net_hpwl_epoch_.clear();
  die_stamp_.clear();
  die_bounds_.clear();
  die_bounds_valid_.clear();
  ++layout_epoch_;
}

LegalityReport Floorplan3D::check_legality() const {
  LegalityReport report;
  const Rect bounds = outline();
  // Outline containment.
  for (const Module& m : modules_) {
    if (!bounds.contains(m.shape)) {
      report.legal = false;
      ++report.outline_violations;
      report.outline_excess_um2 +=
          m.shape.area() - overlap_area(m.shape, bounds);
      std::ostringstream oss;
      oss << "module " << m.name << " leaves the outline on die " << m.die;
      report.violations.push_back(oss.str());
    }
  }
  // Pairwise overlaps, per die.
  for (std::size_t d = 0; d < tech_.num_dies; ++d) {
    const auto on_die = modules_on_die(d);
    for (std::size_t a = 0; a < on_die.size(); ++a) {
      for (std::size_t b = a + 1; b < on_die.size(); ++b) {
        const Module& ma = modules_[on_die[a]];
        const Module& mb = modules_[on_die[b]];
        const double ov = overlap_area(ma.shape, mb.shape);
        if (ov > 0.0) {
          report.legal = false;
          ++report.overlap_count;
          report.overlap_area_um2 += ov;
          std::ostringstream oss;
          oss << "modules " << ma.name << " and " << mb.name
              << " overlap on die " << d << " by " << ov << " um^2";
          report.violations.push_back(oss.str());
        }
      }
    }
  }
  return report;
}

}  // namespace tsc3d
