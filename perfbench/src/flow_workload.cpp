// tsc3d perfbench -- the floorplanning-flow workloads (tsc_n100, pa_n1000).
//
// Untraced pass: one closed-loop client runs Floorplanner::run on the
// workload's design set, round-robin, until the window closes; flow_s is
// the mean over designs of each design's median flow time.  Result
// quality (and the localization-attack success against each final
// floorplan) comes from the first flow of every design.
//
// Traced pass: per design, an untraced Floorplanner::run and then the
// same flow driven phase by phase through the library's public calls,
// with spans around each call and per-call probes on a COPY of the
// floorplan at every annealing stage boundary.  The traced flow must
// reproduce run()'s FloorplanMetrics bitwise (runtime_s aside).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "attack/attacks.hpp"
#include "campaign/options.hpp"
#include "floorplan/floorplanner.hpp"
#include "leakage/pearson.hpp"
#include "leakage/spatial_entropy.hpp"
#include "power/timing.hpp"
#include "power/voltage.hpp"
#include "thermal/power_blur.hpp"
#include "thermal/thermal_engine.hpp"
#include "tsv/dummy_inserter.hpp"
#include "tsv/planner.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using tsc3d::Floorplan3D;
using tsc3d::GridD;
using tsc3d::Rng;
using tsc3d::floorplan::FloorplanMetrics;
using tsc3d::floorplan::Floorplanner;
using tsc3d::floorplan::FloorplannerOptions;

struct FlowSpec {
  const char* benchmark;
  bool tsc;
  std::size_t moves;
  std::size_t designs;
  std::size_t setup_batch;  ///< set-ups per timed set-up sample
};

FlowSpec flow_spec(const RunRequest& req) {
  if (req.workload == "tsc_n100")
    return req.tiny ? FlowSpec{"n100", true, 600, 1, 1}
                    : FlowSpec{"n100", true, 6000, 8, 10};
  if (req.workload == "pa_n1000")
    return req.tiny ? FlowSpec{"n1000", false, 10000, 1, 1}
                    : FlowSpec{"n1000", false, 10000, 7, 2};
  throw std::invalid_argument("unknown flow workload " + req.workload);
}

FloorplannerOptions flow_options(const FlowSpec& spec) {
  FloorplannerOptions o = spec.tsc ? Floorplanner::tsc_aware_setup()
                                   : Floorplanner::power_aware_setup();
  o.anneal.total_moves = spec.moves;
  o.parallel.threads = 1;
  return o;
}

struct Design {
  Floorplan3D fp;
  std::uint64_t design_seed = 0;
  std::uint64_t rng_seed = 0;
};

std::uint64_t design_seed(std::uint64_t seed, std::size_t i) {
  return derive_seed(seed, 2 * i) % 1000000007ULL;
}

void check_designs(const FlowSpec& spec, std::uint64_t seed) {
  for (std::size_t i = 0; i < spec.designs; ++i)
    require_generation_terminates(spec.benchmark, design_seed(seed, i));
}

std::vector<Design> make_designs(const FlowSpec& spec, std::uint64_t seed,
                                 Tracer* tracer) {
  std::vector<Design> out;
  for (std::size_t i = 0; i < spec.designs; ++i) {
    Design d;
    d.design_seed = design_seed(seed, i);
    d.rng_seed = derive_seed(seed, 2 * i + 1);
    Span span(tracer, "benchgen.generate");
    d.fp = tsc3d::benchgen::generate(spec.benchmark, d.design_seed);
    span.end();
    out.push_back(std::move(d));
  }
  return out;
}

void digest_design(Digest& h, const Floorplan3D& fp) {
  h.add(static_cast<std::uint64_t>(fp.modules().size()));
  for (const auto& m : fp.modules()) {
    h.add(m.area_um2);
    h.add(m.power_w);
    h.add(m.intrinsic_delay_ns);
  }
  h.add(static_cast<std::uint64_t>(fp.nets().size()));
}

void digest_breakdown(Digest& h, const tsc3d::floorplan::CostBreakdown& c) {
  for (double v : {c.bbox_area_ratio, c.outline_penalty, c.wirelength_um,
                   c.delay_ns, c.peak_k_rise, c.power_w, c.num_volumes,
                   c.power_gradient, c.total})
    h.add(v);
  for (double v : c.correlation) h.add(v);
  for (double v : c.entropy) h.add(v);
  h.add(static_cast<std::uint64_t>(c.fits_outline));
}

/// Every deterministic field of the metrics (runtime_s excluded) plus the
/// final placement and TSVs.
std::uint64_t digest_flow(const FloorplanMetrics& m, const Floorplan3D& fp) {
  Digest h;
  for (double v : m.correlation) h.add(v);
  for (double v : m.entropy) h.add(v);
  for (double v : {m.power_w, m.critical_delay_ns, m.wirelength_m, m.peak_k})
    h.add(v);
  for (std::size_t v : {m.signal_tsvs, m.dummy_tsvs, m.voltage_volumes,
                        static_cast<std::size_t>(m.legal), m.anneal.moves,
                        m.anneal.accepted, m.anneal.full_evals,
                        m.anneal.repair_moves,
                        static_cast<std::size_t>(m.anneal.found_legal),
                        m.dummy.iterations, m.dummy.tsvs_inserted,
                        m.dummy.islands_inserted})
    h.add(static_cast<std::uint64_t>(v));
  h.add(m.anneal.initial_temperature);
  h.add(m.anneal.best_cost);
  digest_breakdown(h, m.anneal.best_breakdown);
  for (double v : {m.dummy.correlation_before, m.dummy.correlation_after,
                   m.dummy.stability_before, m.dummy.stability_after})
    h.add(v);
  for (double v : m.dummy.correlation_history) h.add(v);
  for (const auto& mod : fp.modules()) {
    h.add(static_cast<std::uint64_t>(mod.die));
    h.add(mod.shape.x);
    h.add(mod.shape.y);
    h.add(mod.shape.w);
    h.add(mod.shape.h);
    h.add(static_cast<std::uint64_t>(mod.voltage_index));
  }
  for (const auto& t : fp.tsvs()) {
    h.add(t.position.x);
    h.add(t.position.y);
    h.add(static_cast<std::uint64_t>(t.count));
    h.add(static_cast<std::uint64_t>(t.kind));
  }
  return h.value();
}

double corr_abs_mean(const FloorplanMetrics& m) {
  std::vector<double> a;
  for (double r : m.correlation) a.push_back(std::abs(r));
  return mean(a);
}

/// Localization-attack success (Sec. 5, the paper's primary threat)
/// against an unmitigated final floorplan, on the campaign's default
/// scenario grid.  Probes the 64 largest modules (the attack's default
/// is 32) so the figure rests on more trials per design.
double localization_success(const Floorplan3D& fp,
                            const FloorplannerOptions& opt,
                            std::uint64_t seed) {
  const tsc3d::campaign::CampaignOptions copt;
  tsc3d::ThermalConfig thermal = opt.thermal;
  thermal.grid_nx = thermal.grid_ny = copt.attack_grid;
  const tsc3d::thermal::GridSolver solver(fp.tech(), thermal);
  tsc3d::attack::AttackOptions attack_opt;
  attack_opt.max_modules = 64;
  Rng rng(seed);
  return tsc3d::attack::run_localization_attack(fp, solver, rng, attack_opt)
      .success_rate();
}

// --- traced flow ------------------------------------------------------

/// Engine-counter deltas and probe time, summed over the traced flows.
struct FlowCounters {
  double loop_solves = 0, loop_sweeps = 0, loop_builds = 0, loop_reuses = 0,
         loop_warm = 0;
  double sampling_solves = 0, sampling_vcycles = 0;
  double verify_vcycles = 0;
  double mg_stalls = 0;
  double probe_s = 0;  ///< wall time spent in stage-boundary probes
  /// Duration [ms] of every run_stage call that ran a stage (the final
  /// call, which only reports that none is left, is not a sample).
  std::vector<double> stage_ms;
};

using EngineStats = tsc3d::thermal::ThermalEngine::Stats;

/// Per-call probes on a copy of the floorplan at a stage boundary.  The
/// probe engine is the tracer's own, so the flow's engines (and their
/// warm-start fields) never see a probe solve.
void probe_stage(const Floorplan3D& fp, const FloorplannerOptions& opt,
                 tsc3d::thermal::ThermalEngine& probe_engine, Tracer* tracer,
                 FlowCounters& counters) {
  const auto t0 = Clock::now();
  Span probe(tracer, "flow.probe");
  Floorplan3D copy = fp;
  const std::size_t g = opt.fast_grid;
  const std::size_t dies = copy.tech().num_dies;
  std::vector<GridD> maps;
  for (std::size_t d = 0; d < dies; ++d) {
    Span s(tracer, "leakage.probe_power_map");
    maps.push_back(copy.power_map(d, g, g));
  }
  double sink = 0.0;
  for (std::size_t d = 0; d < dies; ++d) {
    Span s(tracer, "leakage.probe_entropy");
    sink += tsc3d::leakage::spatial_entropy(maps[d], opt.entropy);
  }
  tsc3d::thermal::ThermalResult solved;
  {
    const GridD density = copy.tsv_density_map(g, g);
    Span s(tracer, "thermal.probe_warm_solve");
    solved = probe_engine.solve_steady(maps, density);
  }
  for (std::size_t d = 0; d < dies; ++d) {
    Span s(tracer, "leakage.probe_pearson");
    sink += tsc3d::leakage::pearson(maps[d], solved.die_temperature[d]);
  }
  {
    Span s(tracer, "tsv.probe_plan");
    const auto plan = tsc3d::tsv::place_signal_tsvs(copy);
    sink += static_cast<double>(plan.tsvs_placed);
  }
  Span timing_span(tracer, "power.probe_timing");
  const tsc3d::power::ElmoreTiming timing(copy, opt.timing);
  sink += timing.analyze().critical_delay_ns;
  timing_span.end();
  {
    Span s(tracer, "power.probe_voltage");
    tsc3d::power::VoltageAssigner assigner(copy, timing, opt.voltage);
    sink += assigner.assign().total_power_w;
  }
  if (!std::isfinite(sink)) throw std::runtime_error("probe produced NaN");
  probe.end();
  counters.probe_s += seconds_since(t0);
}

/// Floorplanner::run (single chain, no checkpoint hooks) driven phase by
/// phase through public calls, with spans and stage-boundary probes.
FloorplanMetrics traced_flow(Floorplan3D& fp, Rng& rng,
                             const FloorplannerOptions& opt, Tracer* tracer,
                             FlowCounters& counters) {
  using namespace tsc3d;
  using namespace tsc3d::floorplan;
  Span flow(tracer, "flow");
  FloorplanMetrics metrics;

  ThermalConfig fast_cfg = opt.thermal;
  fast_cfg.grid_nx = fast_cfg.grid_ny = opt.fast_grid;
  CostEvaluator::Options eval_opt;
  eval_opt.weights = opt.mode == FlowMode::power_aware ? power_aware_weights()
                                                       : tsc_aware_weights();
  eval_opt.voltage_objective = opt.voltage.objective;
  eval_opt.timing = opt.timing;
  eval_opt.voltage = opt.voltage;
  eval_opt.leakage_grid = opt.fast_grid;
  eval_opt.entropy_options = opt.entropy;
  eval_opt.incremental = opt.incremental_eval;
  eval_opt.cross_check_interval = opt.cross_check_interval;

  Span init(tracer, "floorplan.init");
  LayoutState state = LayoutState::initial(fp, rng, opt.hot_modules_to_top);
  if (!opt.incremental_eval) state.disable_tracking();
  if (opt.auto_clock_factor > 0.0) {
    state.apply_to(fp);
    const power::ElmoreTiming initial_timing(fp, opt.timing);
    fp.tech().clock_period_ns = std::max(
        opt.auto_clock_factor * initial_timing.analyze().critical_delay_ns,
        1e-3);
  }
  init.end();

  thermal::ThermalEngine fast_engine(fp.tech(), fast_cfg, opt.parallel,
                                     thermal::EngineRole::fast_loop);
  thermal::ThermalEngine probe_engine(fp.tech(), fast_cfg, opt.parallel,
                                      thermal::EngineRole::fast_loop);
  Span calibrate(tracer, "thermal.blur_calibrate");
  const thermal::PowerBlur blur(fast_engine, opt.blur_radius);
  calibrate.end();
  const EngineStats after_calibration = fast_engine.stats();
  if (opt.detailed_inner_thermal) eval_opt.detailed_engine = &fast_engine;
  CostEvaluator evaluator(fp, blur, eval_opt);
  Annealer annealer(fp, evaluator, opt.anneal);

  Span begin(tracer, "floorplan.begin");
  AnnealSession session = annealer.begin(state, rng);
  begin.end();
  probe_stage(fp, opt, probe_engine, tracer, counters);
  for (;;) {
    Span stage(tracer, "floorplan.stage");
    const bool ran = annealer.run_stage(session, rng);
    const double stage_s = stage.end();
    if (!ran) break;
    counters.stage_ms.push_back(stage_s * 1e3);
    probe_stage(fp, opt, probe_engine, tracer, counters);
  }
  Span finish(tracer, "floorplan.finish");
  metrics.anneal = annealer.finish(session, rng);
  finish.end();
  const EngineStats& loop = fast_engine.stats();
  counters.loop_solves += loop.steady_solves - after_calibration.steady_solves;
  counters.loop_sweeps += loop.total_sweeps - after_calibration.total_sweeps;
  counters.loop_builds +=
      loop.assembly_builds - after_calibration.assembly_builds;
  counters.loop_reuses +=
      loop.assembly_reuses - after_calibration.assembly_reuses;
  counters.loop_warm += loop.warm_starts - after_calibration.warm_starts;
  counters.mg_stalls += loop.mg_stalls;
  metrics.legal = fp.check_legality().legal;

  Span plan(tracer, "tsv.signal_plan");
  tsv::place_signal_tsvs(fp);
  plan.end();
  Span voltage(tracer, "power.voltage_assign");
  const power::ElmoreTiming timing(fp, opt.timing);
  power::VoltageOptions vopt = opt.voltage;
  power::VoltageAssigner assigner(fp, timing, vopt);
  const power::VoltageAssignment va = assigner.assign();
  metrics.voltage_volumes = va.num_volumes();
  voltage.end();

  if (opt.dummy_insertion && opt.mode == FlowMode::tsc_aware) {
    ThermalConfig sampling_cfg = opt.thermal;
    sampling_cfg.grid_nx = sampling_cfg.grid_ny = opt.sampling_grid;
    thermal::ThermalEngine sampling_engine(fp.tech(), sampling_cfg,
                                           opt.parallel,
                                           thermal::EngineRole::sampling);
    Span dummy(tracer, "tsv.dummy_insert");
    metrics.dummy = tsv::insert_dummy_tsvs(fp, sampling_engine, rng, opt.dummy);
    dummy.end();
    counters.sampling_solves += sampling_engine.stats().steady_solves;
    counters.sampling_vcycles += sampling_engine.stats().vcycles;
    counters.mg_stalls += sampling_engine.stats().mg_stalls;
  }

  ThermalConfig verify_cfg = opt.thermal;
  verify_cfg.grid_nx = verify_cfg.grid_ny = opt.verify_grid;
  thermal::ThermalEngine verify_engine(fp.tech(), verify_cfg, opt.parallel,
                                       thermal::EngineRole::verify);
  const std::size_t g = opt.verify_grid;
  Span verify(tracer, "thermal.verify");
  std::vector<GridD> power_maps;
  for (std::size_t d = 0; d < fp.tech().num_dies; ++d)
    power_maps.push_back(fp.power_map(d, g, g));
  const thermal::ThermalResult verified =
      verify_engine.solve_steady(power_maps, fp.tsv_density_map(g, g));
  verify.end();
  counters.verify_vcycles += verify_engine.stats().vcycles;
  counters.mg_stalls += verify_engine.stats().mg_stalls;

  Span leak(tracer, "leakage.verify_metrics");
  for (std::size_t d = 0; d < fp.tech().num_dies; ++d) {
    metrics.correlation.push_back(
        leakage::pearson(power_maps[d], verified.die_temperature[d]));
    metrics.entropy.push_back(
        leakage::spatial_entropy(power_maps[d], opt.entropy));
  }
  leak.end();
  metrics.peak_k = verified.peak_k;
  metrics.power_w = fp.total_power();
  metrics.critical_delay_ns = timing.analyze().critical_delay_ns;
  metrics.wirelength_m = fp.hpwl() * 1e-6;
  metrics.signal_tsvs = fp.tsv_count(TsvKind::signal);
  metrics.dummy_tsvs = fp.tsv_count(TsvKind::dummy);
  return metrics;
}

// --- the two passes -----------------------------------------------------

RunOutcome untraced_pass(const RunRequest& req, const FlowSpec& spec) {
  RunOutcome out;
  // Set-up: design generation plus option assembly, timed in batches so
  // the reported figure is a median of samples of tens of ms.
  const std::size_t setup_samples = req.tiny ? 2 : 15;
  check_designs(spec, req.seed);
  std::vector<Design> designs;
  FloorplannerOptions opt;
  const double setup_s = median_setup_s(
      [&] {
        designs = make_designs(spec, req.seed, nullptr);
        opt = flow_options(spec);
      },
      spec.setup_batch, setup_samples);
  const Floorplanner planner(opt);

  Digest design_digest;
  for (const Design& d : designs) digest_design(design_digest, d.fp);
  out.design_digest = design_digest.hex();

  std::vector<std::vector<double>> flow_s(designs.size());
  std::vector<FloorplanMetrics> first(designs.size());
  std::vector<Floorplan3D> final_fp(designs.size());
  std::vector<std::uint64_t> first_digest(designs.size(), 0);
  const auto window = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t d = i % designs.size();
    Floorplan3D fp = designs[d].fp;
    Rng rng(designs[d].rng_seed);
    ++out.attempted;
    try {
      const auto t0 = Clock::now();
      const FloorplanMetrics m = planner.run(fp, rng);
      flow_s[d].push_back(seconds_since(t0));
      const std::uint64_t h = digest_flow(m, fp);
      if (!m.legal || !fp.check_legality().legal) {
        out.fail("design " + std::to_string(d) + ": illegal floorplan");
      } else if (i < designs.size()) {
        first[d] = m;
        final_fp[d] = fp;
        first_digest[d] = h;
      } else if (h != first_digest[d]) {
        out.fail("design " + std::to_string(d) +
                 ": repeated flow is not bitwise identical");
      }
    } catch (const std::exception& e) {
      out.fail("design " + std::to_string(d) + ": " + e.what());
    }
    // Every design runs at least once; after that, start another flow
    // only if a typical one still fits in the window.
    if (i + 1 >= designs.size()) {
      std::vector<double> all;
      for (const auto& v : flow_s) all.insert(all.end(), v.begin(), v.end());
      if (seconds_since(window) + median(all) > req.seconds) break;
    }
  }

  // Result quality, deterministic per seed: averaged over the design set.
  std::vector<double> corr, peak_rise, power, delay, wl, attack;
  Digest outputs;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    if (flow_s[d].empty() || first_digest[d] == 0) continue;
    const FloorplanMetrics& m = first[d];
    corr.push_back(corr_abs_mean(m));
    peak_rise.push_back(m.peak_k - opt.thermal.ambient_k);
    power.push_back(m.power_w);
    delay.push_back(m.critical_delay_ns);
    wl.push_back(m.wirelength_m);
    ++out.attempted;
    try {
      attack.push_back(localization_success(
          final_fp[d], opt, derive_seed(designs[d].rng_seed, 7)));
    } catch (const std::exception& e) {
      out.fail("design " + std::to_string(d) + ": attack: " + e.what());
    }
    outputs.add(first_digest[d]);
    char line[256];
    std::snprintf(line, sizeof line,
                  "design %zu seed %llu: corr_abs %.6f peak_rise_k %.4f "
                  "power_w %.5f delay_ns %.5f wirelength_m %.6f "
                  "digest %016llx",
                  d, static_cast<unsigned long long>(designs[d].design_seed),
                  corr.back(), peak_rise.back(), m.power_w,
                  m.critical_delay_ns, m.wirelength_m,
                  static_cast<unsigned long long>(first_digest[d]));
    out.notes.emplace_back(line);
  }
  for (double a : attack) outputs.add(a);
  out.output_digest = outputs.hex();

  // Mean over the design set of each design's median: the design set is
  // fixed per seed, so the figure does not depend on which designs the
  // window happened to repeat.
  std::vector<double> per_design;
  std::size_t flows = 0;
  std::string samples;
  for (const auto& v : flow_s) {
    if (v.empty()) continue;
    per_design.push_back(median(v));
    flows += v.size();
    samples += " " + std::to_string(per_design.back());
  }
  out.metrics["setup_s"] = setup_s;
  out.metrics["op_s"] = mean(per_design);
  out.metrics["corr_abs_mean"] = mean(corr);
  out.metrics["peak_rise_k"] = mean(peak_rise);
  out.metrics["power_w"] = mean(power);
  out.metrics["critical_delay_ns"] = mean(delay);
  out.metrics["wirelength_m"] = mean(wl);
  out.metrics["attack_success_mean"] = mean(attack);
  out.notes.push_back("flow_s " + std::to_string(mean(per_design)) +
                      " s (mean over " + std::to_string(per_design.size()) +
                      " designs of each design's median; " +
                      std::to_string(flows) + " flows; per-design medians:" +
                      samples + ")");
  out.notes.push_back("setup_s " + std::to_string(setup_s) +
                      " s (median of " + std::to_string(setup_samples) +
                      " batches of " + std::to_string(spec.setup_batch) +
                      " set-ups)");
  return out;
}

RunOutcome traced_pass(const RunRequest& req, const FlowSpec& spec,
                       Tracer* tracer) {
  RunOutcome out;
  check_designs(spec, req.seed);
  std::vector<Design> designs;
  {
    Span setup(tracer, "setup");
    designs = make_designs(spec, req.seed, tracer);
  }
  const FloorplannerOptions opt = flow_options(spec);
  const Floorplanner planner(opt);
  Digest design_digest;
  for (const Design& d : designs) digest_design(design_digest, d.fp);
  out.design_digest = design_digest.hex();

  FlowCounters c;
  double untraced_s = 0.0, traced_s = 0.0, moves = 0.0, accepted = 0.0,
         full_evals = 0.0, dummy_iterations = 0.0;
  std::size_t flows = 0;
  Digest outputs;
  // At least two flows, so the stage-time percentiles rest on >= 100
  // stage samples at the default 50 stages per flow.
  // After that, start another pair only if a typical one still fits.
  const std::size_t min_flows = req.tiny ? 1 : 2;
  const auto window = Clock::now();
  for (std::size_t i = 0;
       i < min_flows ||
       (i < designs.size() &&
        seconds_since(window) * static_cast<double>(i + 1) /
                static_cast<double>(i) <=
            req.seconds);
       ++i) {
    const Design& d = designs[i % designs.size()];
    out.attempted += 2;
    try {
      Floorplan3D ref_fp = d.fp;
      Rng ref_rng(d.rng_seed);
      auto t0 = Clock::now();
      const FloorplanMetrics ref = planner.run(ref_fp, ref_rng);
      untraced_s += seconds_since(t0);

      Floorplan3D fp = d.fp;
      Rng rng(d.rng_seed);
      const double probe_before = c.probe_s;
      t0 = Clock::now();
      const FloorplanMetrics m = traced_flow(fp, rng, opt, tracer, c);
      traced_s += seconds_since(t0) - (c.probe_s - probe_before);
      ++flows;

      const std::uint64_t h = digest_flow(m, fp);
      outputs.add(h);
      if (!ref.legal || !m.legal) out.fail("illegal floorplan");
      if (h != digest_flow(ref, ref_fp) || !(rng.state() == ref_rng.state()))
        out.fail("traced flow differs from Floorplanner::run");
      moves += static_cast<double>(m.anneal.moves);
      accepted += static_cast<double>(m.anneal.accepted);
      full_evals += static_cast<double>(m.anneal.full_evals);
      dummy_iterations += static_cast<double>(m.dummy.iterations);
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  }
  out.output_digest = outputs.hex();

  const Tracer& t = *tracer;
  const double n = std::max<double>(1.0, static_cast<double>(flows));
  const std::vector<double>& stages = c.stage_ms;
  double anneal_ms = 0.0, flow_ms = 0.0;
  for (const char* name :
       {"floorplan.begin", "floorplan.stage", "floorplan.finish"})
    for (double v : t.durations_ms(name)) anneal_ms += v;
  for (double v : t.durations_ms("flow")) flow_ms += v;
  for (double v : t.durations_ms("flow.probe")) flow_ms -= v;
  MetricSet& ms = out.metrics;
  set_span_median(ms, t, "benchgen.generate", "ms");
  set_span_median(ms, t, "floorplan.init", "ms");
  set_span_median(ms, t, "floorplan.begin", "ms");
  ms["floorplan.stage_ms.p50"] = quantile(stages, 0.5);
  ms["floorplan.stage_ms.p90"] = quantile(stages, 0.9);
  set_span_median(ms, t, "floorplan.finish", "ms");
  ms["floorplan.moves"] = moves / n;
  ms["floorplan.moves_per_s"] =
      anneal_ms > 0.0 ? moves / (anneal_ms * 1e-3) : 0.0;
  ms["floorplan.accept_ratio"] = moves > 0.0 ? accepted / moves : 0.0;
  ms["floorplan.full_evals"] = full_evals / n;
  set_span_median(ms, t, "thermal.blur_calibrate", "ms");
  ms["thermal.loop_solves"] = c.loop_solves / n;
  ms["thermal.loop_sweeps_per_solve"] =
      c.loop_solves > 0 ? c.loop_sweeps / c.loop_solves : 0.0;
  ms["thermal.loop_assembly_reuse_ratio"] =
      c.loop_builds + c.loop_reuses > 0
          ? c.loop_reuses / (c.loop_builds + c.loop_reuses)
          : 0.0;
  ms["thermal.loop_warm_ratio"] =
      c.loop_solves > 0 ? c.loop_warm / c.loop_solves : 0.0;
  set_span_median(ms, t, "thermal.probe_warm_solve", "us");
  const bool dummy_ran = !t.durations_ms("tsv.dummy_insert").empty();
  if (dummy_ran) {
    ms["thermal.sampling_solves"] = c.sampling_solves / n;
    ms["thermal.sampling_vcycles"] = c.sampling_vcycles / n;
    ms["tsv.dummy_iterations"] = dummy_iterations / n;
  }
  set_span_median(ms, t, "thermal.verify", "ms");
  ms["thermal.verify_vcycles"] = c.verify_vcycles / n;
  ms["thermal.mg_stalls"] = c.mg_stalls / n;
  set_span_median(ms, t, "leakage.probe_power_map", "us");
  set_span_median(ms, t, "leakage.probe_entropy", "us");
  set_span_median(ms, t, "leakage.probe_pearson", "us");
  set_span_median(ms, t, "leakage.verify_metrics", "ms");
  set_span_median(ms, t, "tsv.probe_plan", "us");
  set_span_median(ms, t, "tsv.signal_plan", "ms");
  set_span_median(ms, t, "tsv.dummy_insert", "ms");
  set_span_median(ms, t, "power.probe_timing", "us");
  set_span_median(ms, t, "power.probe_voltage", "us");
  set_span_median(ms, t, "power.voltage_assign", "ms");
  ms["trace.overhead_frac"] =
      untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
  out.notes.push_back(
      "traced " + std::to_string(flows) + " flows, " +
      std::to_string(stages.size()) + " stage samples; untraced " +
      std::to_string(untraced_s) + " s vs traced " + std::to_string(traced_s) +
      " s (probes excluded: " + std::to_string(c.probe_s) + " s)");
  // The anneal's share of the traced flows, probes excluded: the rest is
  // the fixed per-flow phases (init, blur calibration, TSV planning,
  // voltage assignment, dummy insertion, verification).
  out.notes.push_back(
      "anneal_share " +
      std::to_string(flow_ms > 0.0 ? anneal_ms / flow_ms : 0.0) +
      " (begin + stages + finish over traced flow time, probes excluded)");
  return out;
}

}  // namespace

RunOutcome run_flow_workload(const RunRequest& req, Tracer* tracer) {
  const FlowSpec spec = flow_spec(req);
  return tracer == nullptr ? untraced_pass(req, spec)
                           : traced_pass(req, spec, tracer);
}

}  // namespace perfbench
