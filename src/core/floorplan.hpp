// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Floorplan3D: the central design database.  It owns the modules, nets,
// terminals and TSVs of a two-die (face-to-back) 3D IC and provides the
// derived quantities every other subsystem consumes: rasterized power
// maps, TSV-density maps, wirelength, utilization, and legality checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config.hpp"
#include "grid.hpp"
#include "module.hpp"

namespace tsc3d {

/// Result of a legality check; empty `violations` means legal.
struct LegalityReport {
  bool legal = true;
  std::size_t overlap_count = 0;       ///< pairs of overlapping modules
  double overlap_area_um2 = 0.0;       ///< total pairwise overlap area
  std::size_t outline_violations = 0;  ///< modules leaving the fixed outline
  double outline_excess_um2 = 0.0;     ///< area outside the outline
  std::vector<std::string> violations; ///< human-readable details
};

/// The design database for one 3D IC.
class Floorplan3D {
 public:
  Floorplan3D() = default;
  explicit Floorplan3D(TechnologyConfig tech) : tech_(std::move(tech)) {
    tech_.validate();
  }

  [[nodiscard]] const TechnologyConfig& tech() const { return tech_; }
  [[nodiscard]] TechnologyConfig& tech() { return tech_; }

  [[nodiscard]] std::vector<Module>& modules() { return modules_; }
  [[nodiscard]] const std::vector<Module>& modules() const { return modules_; }
  [[nodiscard]] std::vector<Net>& nets() { return nets_; }
  [[nodiscard]] const std::vector<Net>& nets() const { return nets_; }
  [[nodiscard]] std::vector<Terminal>& terminals() { return terminals_; }
  [[nodiscard]] const std::vector<Terminal>& terminals() const {
    return terminals_;
  }
  [[nodiscard]] std::vector<Tsv>& tsvs() { return tsvs_; }
  [[nodiscard]] const std::vector<Tsv>& tsvs() const { return tsvs_; }

  /// Fixed die outline (same for every die in the stack).
  [[nodiscard]] Rect outline() const {
    return Rect{0.0, 0.0, tech_.die_width_um, tech_.die_height_um};
  }

  /// Indices of the modules placed on die `d`.
  [[nodiscard]] std::vector<std::size_t> modules_on_die(std::size_t d) const;

  /// Power of module `i` scaled by its assigned voltage level [W].
  [[nodiscard]] double effective_power(std::size_t i) const;

  /// Total effective power over all modules [W].
  [[nodiscard]] double total_power() const;

  /// Sum of module areas on die `d` divided by the outline area.
  [[nodiscard]] double utilization(std::size_t d) const;

  /// Rasterize the power map of die `d` onto an nx-by-ny grid.  Each bin
  /// receives module power proportional to the overlap area, i.e. the map
  /// integrates to the die's total power [W].  If `module_power_w` is
  /// provided it supplies per-module absolute power values (e.g. one
  /// Gaussian activity sample); otherwise effective_power() is used.
  [[nodiscard]] GridD power_map(
      std::size_t d, std::size_t nx, std::size_t ny,
      const std::vector<double>* module_power_w = nullptr) const;

  /// Power density map [W/um^2] -- the paper reports power maps in
  /// 1e-2 uW/um^2; this is the same map in coherent units.
  [[nodiscard]] GridD power_density_map(std::size_t d, std::size_t nx,
                                        std::size_t ny) const;

  /// Fraction of each bin's area covered by TSV cells (body + keep-out),
  /// clamped to [0,1].  Islands of `count` TSVs occupy a square of
  /// count * cell_area around the island center.
  [[nodiscard]] GridD tsv_density_map(std::size_t nx, std::size_t ny,
                                      bool include_dummy = true) const;

  /// Total number of TSVs of the given kind (islands weighted by count).
  [[nodiscard]] std::size_t tsv_count(TsvKind kind) const;

  /// Half-perimeter wirelength over all nets [um].  Pins on different dies
  /// contribute no extra planar length here (the vertical hop is one TSV);
  /// the bounding box spans the projected positions of all pins.
  [[nodiscard]] double hpwl() const;

  /// Weighted HPWL of one net (the per-net contribution hpwl() sums).
  [[nodiscard]] double net_hpwl(const Net& net) const;

  /// Unweighted half-perimeter of the net's pin bounding box [um]: the
  /// scan net_hpwl() weights, shared so other per-net consumers (the
  /// Elmore timing engine's wire-length estimate) run the IDENTICAL
  /// arithmetic and can reuse cached values bitwise.
  [[nodiscard]] double net_box_len(const Net& net) const;

  // --- incremental layout tracking ---------------------------------------
  // The annealing hot path rewrites only the modules of dies a move
  // perturbed (LayoutState::apply_to) and reports every rewritten module
  // through note_module_moved().  The database turns those notes into
  // per-net dirty epochs (via a module -> nets incidence index) and
  // per-die bounding-box invalidations, so consumers can recompute only
  // what a move touched:
  //
  //  * hpwl_cached() recomputes dirty nets' boxes with the same
  //    arithmetic as hpwl() and re-sums the per-net array in canonical
  //    net order -- bitwise-equal to a full recompute by construction;
  //  * die_bounds() serves the packing-fed (or scanned) per-die bbox for
  //    the outline/area terms;
  //  * net_epoch()/layout_epoch() let external per-net caches (the Elmore
  //    timing engine) key their own entries.
  //
  // Invariant: between apply_to()-driven rewrites the net topology and
  // module positions are not mutated behind the database's back.  Code
  // that moves modules directly must call note_module_moved() per module
  // (or invalidate_layout_caches() wholesale); CostEvaluator's debug
  // cross-check (floorplanning.cross_check_interval) guards the invariant
  // in the annealing loop.

  /// Record that module `i`'s position/shape/die was (re)written: bumps
  /// the epoch of every incident net and invalidates the die bbox cache
  /// of the module's current die.  `die_changed == false` promises the
  /// module stayed on its die (an intra-die reposition/resize), letting
  /// per-net die-span caches survive; when unsure, keep the default.
  void note_module_moved(std::size_t i, bool die_changed = true);

  /// Nets with at least one pin on module `i` (lazily built incidence).
  [[nodiscard]] const std::vector<std::size_t>& nets_of_module(
      std::size_t i) const;

  /// Monotone per-net dirty epoch (starts at 1; 0 never occurs, so 0 is a
  /// safe "never seen" sentinel for external caches).
  [[nodiscard]] std::uint64_t net_epoch(std::size_t n) const;

  /// Like net_epoch, but advanced only when an incident module changed
  /// DIE (not merely position/shape): while it holds still, the set of
  /// dies a net spans is unchanged, so per-net TSV-hop/span caches stay
  /// exact.  Same >= 1 / 0-sentinel convention as net_epoch.
  [[nodiscard]] std::uint64_t net_die_epoch(std::size_t n) const;

  /// Bulk views of the per-net epoch arrays (indexed by net, same values
  /// as net_epoch()/net_die_epoch()): lets per-net cache sweeps hoist the
  /// lazy-index check out of their loop.  Invalidated by the same events
  /// that grow/shrink the net list.
  [[nodiscard]] const std::vector<std::uint64_t>& net_epochs() const;
  [[nodiscard]] const std::vector<std::uint64_t>& net_die_epochs() const;

  /// Monotone global layout epoch: bumped by every note_module_moved()
  /// and by invalidate_layout_caches().
  [[nodiscard]] std::uint64_t layout_epoch() const { return layout_epoch_; }

  /// Incrementally maintained hpwl(): recomputes only nets whose epoch
  /// advanced since the last call, then re-sums per-net values in net
  /// order.  Bitwise-equal to hpwl() as long as the tracking invariant
  /// above holds.
  [[nodiscard]] double hpwl_cached();

  /// Serve net `n`'s cached unweighted box length if it is current (its
  /// cache entry was computed at the net's present epoch).  Returns false
  /// when stale or never computed -- the caller recomputes via
  /// net_box_len(), which yields the identical bits.  hpwl_cached() fills
  /// this cache as it recomputes dirty nets, so evaluation pipelines that
  /// run the HPWL term first get every dirty net's length for free.
  [[nodiscard]] bool net_length_cached(std::size_t n, double& len_um) const;

  /// Bounding-box extent (max right / max top over modules) of die `d`.
  /// Served from the cache when valid (fed by LayoutState::apply_to with
  /// the packing result, or by a previous scan), recomputed by scanning
  /// the modules otherwise -- both produce the identical max.
  struct DieBounds {
    double width = 0.0;
    double height = 0.0;
  };
  [[nodiscard]] DieBounds die_bounds(std::size_t d) const;

  /// Install die `d`'s bbox (the packer's bounding box equals the module
  /// scan bitwise: same set of right/top values, max is order-free).
  void set_die_bounds(std::size_t d, double width, double height);

  /// Per-die stamp of the last LayoutState write (see
  /// LayoutState::apply_to): a (family, version) pair uniquely
  /// identifying the die content some layout state wrote.  family == 0
  /// never matches.
  struct LayoutStamp {
    std::uint64_t family = 0;  ///< 0 = no layout state wrote this die
    std::uint64_t version = 0;
  };
  /// Die `d`'s current stamp ({0, 0} when none): lets caches outside the
  /// database key per-die derived data (CostEvaluator's power maps) on
  /// the exact module set and geometry the stamp pins.
  [[nodiscard]] LayoutStamp layout_stamp(std::size_t d) const;
  [[nodiscard]] bool layout_stamp_matches(std::size_t d, std::uint64_t family,
                                          std::uint64_t version) const;
  void set_layout_stamp(std::size_t d, std::uint64_t family,
                        std::uint64_t version);

  /// Drop every incremental cache: incidence index, net epochs (all nets
  /// dirty), die bounds, and layout stamps.  Call after mutating nets,
  /// terminals, or module placements outside apply_to()/
  /// note_module_moved().  Illegal while a trial is open.
  void invalidate_layout_caches();

  // --- trial (speculative) layout mutation --------------------------------
  // A trial brackets one speculative move: between begin_trial() and
  // commit_trial()/rollback_trial(), every mutation of module placements
  // and of the incremental caches above journals its pre-trial value on
  // first touch.  commit_trial() drops the journal (the mutations stand);
  // rollback_trial() restores every journaled module shape/die, net
  // epoch, per-net HPWL cache entry, die bbox, and layout stamp to its
  // pre-trial bits -- so a rejected move leaves the database exactly as
  // if it never happened, including the stamps that let the next
  // LayoutState::apply_to skip the dies entirely.  The global
  // layout_epoch_ is deliberately NOT rolled back: it stays monotone, so
  // epochs minted inside an abandoned trial can never collide with
  // later ones.  Trials do not nest.

  /// Open a trial.  Builds the incidence index and die caches up front so
  /// no lazy rebuild (which resets every net epoch) can fire mid-trial.
  void begin_trial();
  /// Keep every mutation since begin_trial(); drops the journal.
  void commit_trial();
  /// Undo every journaled mutation since begin_trial(), bitwise.
  void rollback_trial();
  [[nodiscard]] bool in_trial() const { return trial_active_; }

  /// Journal module `i`'s shape and die before an in-trial write.  Called
  /// by LayoutState::apply_to ahead of each module it rewrites; no-op
  /// outside a trial or on a module already journaled this trial.
  void trial_save_module(std::size_t i);

  /// Bounding-box footprint of a TSV island placed at `t.position`.
  [[nodiscard]] Rect tsv_island_rect(const Tsv& t) const;

  /// Check module overlaps and fixed-outline containment on every die.
  [[nodiscard]] LegalityReport check_legality() const;

 private:
  void ensure_net_index() const;
  void ensure_die_caches() const;

  TechnologyConfig tech_;
  std::vector<Module> modules_;
  std::vector<Net> nets_;
  std::vector<Terminal> terminals_;
  std::vector<Tsv> tsvs_;

  // --- incremental layout caches (see "incremental layout tracking") ----
  // All mutable: they are derived data, maintained lazily behind const
  // accessors.  Copying the database copies them (they stay coherent with
  // the copied modules/nets).
  mutable std::vector<std::vector<std::size_t>> nets_of_module_;
  mutable bool net_index_ready_ = false;
  mutable std::vector<std::uint64_t> net_epoch_;     ///< per net, >= 1
  mutable std::vector<std::uint64_t> net_die_epoch_; ///< per net, >= 1
  mutable std::uint64_t layout_epoch_ = 1;
  std::vector<double> net_hpwl_cache_;               ///< weighted per-net hpwl
  std::vector<double> net_len_cache_;                ///< unweighted box length
  std::vector<std::uint64_t> net_hpwl_epoch_;        ///< epoch at compute, 0 = never
  mutable std::vector<LayoutStamp> die_stamp_;       ///< per die
  mutable std::vector<DieBounds> die_bounds_;        ///< per die
  mutable std::vector<bool> die_bounds_valid_;

  // --- trial journal (see "trial (speculative) layout mutation") ---------
  // First-touch journaling: mark arrays compare against trial_id_ (bumped
  // per begin_trial, so clearing them is O(1)); each journal entry holds
  // the complete pre-trial state of one module / net cache row / die
  // cache row.  Mutable because const readers (the die_bounds lazy scan)
  // also write cache rows and must journal them.
  struct TrialModule {
    std::size_t i = 0;
    Rect shape;
    std::size_t die = 0;
  };
  struct TrialNet {
    std::size_t n = 0;
    std::uint64_t epoch = 0;
    std::uint64_t die_epoch = 0;
    bool had_hpwl = false;  ///< hpwl cache rows existed at capture time
    std::uint64_t hpwl_epoch = 0;
    double hpwl = 0.0;
    double len = 0.0;
  };
  struct TrialDie {
    std::size_t d = 0;
    DieBounds bounds;
    bool bounds_valid = false;
    LayoutStamp stamp;
  };
  void trial_save_net(std::size_t n) const;
  void trial_save_die(std::size_t d) const;
  bool trial_active_ = false;
  mutable std::uint64_t trial_id_ = 0;
  mutable std::vector<std::uint64_t> trial_mark_module_;
  mutable std::vector<std::uint64_t> trial_mark_net_;
  mutable std::vector<std::uint64_t> trial_mark_die_;
  mutable std::vector<TrialModule> trial_modules_;
  mutable std::vector<TrialNet> trial_nets_;
  mutable std::vector<TrialDie> trial_dies_;
};

}  // namespace tsc3d
