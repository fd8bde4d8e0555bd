// tsc3d perfbench -- the attack campaign workload (campaign_mix).
//
// A small matrix: all five attacks x {none, dtm, noise_injection} x
// {tsc_secure, monolithic} at four Monte-Carlo seeds derived from the
// workload seed, with short explorations.  The untraced pass repeats,
// until the window closes: set up a fresh queue and cache, drain it cold
// (campaign_s), then re-serve the matrix on a fresh queue that shares
// the cache -- every scenario must be a cache hit and the three report
// files byte-identical to the cold ones.
//
// The traced pass drains once cold through the product entry points,
// then re-runs every scenario stage by stage through the public calls
// (service::run_job, rebuild_floorplan, apply_mitigation, run_attack,
// measure_leakage) with spans around each, and requires every traced
// result to equal its collect_results entry.
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "campaign/matrix.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "config/apply.hpp"
#include "config/config_file.hpp"
#include "service/job_queue.hpp"
#include "service/result_cache.hpp"
#include "service/worker.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace tsc3d;

/// The campaign's Monte-Carlo seeds: [first, first + count).  Four seeds
/// (eight explorations, 120 scenarios) average out how much a drain's
/// cost depends on the generated design: on a 4-core Xeon VM one seed's
/// drain took 5.7-7.9 s depending on the workload seed.  A cold drain of
/// the full matrix then takes most of a 30 s window, so op_s is usually
/// one drain per run.
struct SeedRange {
  std::uint64_t first = 1;
  std::uint64_t count = 1;
};

SeedRange campaign_seeds(std::uint64_t seed, bool tiny) {
  return SeedRange{derive_seed(seed, 0) % 1000000007ULL + 1,
                   tiny ? 1ULL : 4ULL};
}

std::string campaign_config(std::uint64_t seed, bool tiny) {
  const SeedRange seeds = campaign_seeds(seed, tiny);
  std::string text =
      "[floorplanning]\n"
      "threads = 1\n";
  text += tiny ? "sa_moves = 300\nsa_stages = 5\n"
               : "sa_moves = 1000\nsa_stages = 20\n";
  // One durable checkpoint per exploration (its final stage boundary).
  // Per-stage checkpoints of these short explorations would rewrite ~20
  // files per exploration, and the freed blocks slow the file system's
  // metadata operations -- the next set-up's enqueue -- for tens of
  // seconds afterwards.  Service keys are not part of any result
  // identity, so results are unchanged.
  text += tiny ? "[service]\ncheckpoint_interval = 5\n"
               : "[service]\ncheckpoint_interval = 20\n";
  text +=
      "[campaign]\n"
      "benchmark = n100\n"
      "attacks = localization, characterization, monitoring, "
      "covert_channel, heating_fault\n"
      "mitigations = none, dtm, noise_injection\n"
      "flavors = tsc_secure, monolithic\n";
  text += "seeds = " + std::to_string(seeds.first) + "-" +
          std::to_string(seeds.first + seeds.count - 1) + "\n";
  text += tiny ? "attack_grid = 8\nmonitoring_trials = 2\ncovert_bits = 2\n"
                 "leakage_phases = 3\n"
               : "attack_grid = 12\nmonitoring_trials = 4\ncovert_bits = 4\n"
                 "leakage_phases = 3\n";
  return text;
}

/// The set-up proper: parse the config and expand the matrix.
campaign::CampaignPlan plan_matrix(const std::string& config_text) {
  return campaign::plan_campaign(
      config::ConfigFile::parse(config_text, "campaign_mix"));
}

/// A fresh queue under `dir` -- with a fresh cache unless `shared_cache`
/// is set -- holding the whole matrix.
service::JobQueue open_queue(const std::string& config_text,
                             const campaign::CampaignPlan& plan,
                             const fs::path& dir,
                             const fs::path& shared_cache) {
  fs::remove_all(dir);
  service::ServiceOptions opt = config::make_service_options(
      config::ConfigFile::parse(config_text, "campaign_mix"));
  opt.queue_dir = (dir / "queue").string();
  opt.cache_dir = shared_cache.empty() ? (dir / "cache").string()
                                       : shared_cache.string();
  service::JobQueue queue(opt);
  campaign::enqueue_campaign(queue, plan);
  return queue;
}

struct Report {
  std::string scenarios, pareto, summary;
  [[nodiscard]] bool operator==(const Report&) const = default;
};

Report render(const campaign::CampaignPlan& plan,
              const std::vector<campaign::ScenarioResult>& results) {
  return Report{campaign::render_scenarios_csv(plan.jobs, results),
                campaign::render_pareto_csv(plan.jobs, results),
                campaign::render_summary(plan.options, plan.jobs, results)};
}

/// Count failed job reports (and cold-pass cache hits / warm-pass
/// misses, which break the cold/warm invariant) into `out`.
void check_reports(const std::vector<campaign::ScenarioWorkReport>& reports,
                   bool expect_hits, const char* pass, RunOutcome& out) {
  out.attempted += reports.size();
  for (const auto& r : reports) {
    if (!r.ok)
      out.fail(std::string(pass) + " job " + r.id + ": " + r.error);
    else if (r.cache_hit != expect_hits)
      out.fail(std::string(pass) + " job " + r.id +
               (expect_hits ? ": cache miss on warm re-serve"
                            : ": unexpected cache hit on cold drain"));
  }
}

/// Distinct exploration jobs of the plan, in plan order.
std::vector<service::JobSpec> explorations(const campaign::CampaignPlan& p) {
  std::vector<service::JobSpec> out;
  std::set<std::string> seen;
  for (const auto& job : p.jobs) {
    service::JobSpec e = campaign::exploration_spec(job);
    if (seen.insert(service::job_id(e)).second) out.push_back(std::move(e));
  }
  return out;
}

void set_quality(const campaign::CampaignPlan& plan,
                 const service::JobQueue& queue,
                 const std::vector<campaign::ScenarioResult>& results,
                 RunOutcome& out) {
  const service::ResultCache cache(queue.cache_dir());
  std::vector<double> corr, peak_rise, power, delay, wl, attack;
  for (const service::JobSpec& e : explorations(plan)) {
    const std::optional<service::StoredResult> r =
        cache.probe(service::job_context(e));
    if (!r) {
      out.fail("exploration result missing from the cache");
      continue;
    }
    ThermalConfig thermal;
    config::apply_thermal(
        config::ConfigFile::parse(e.config_text, "exploration"), thermal);
    std::vector<double> a;
    for (double c : r->correlation) a.push_back(std::abs(c));
    corr.push_back(mean(a));
    peak_rise.push_back(r->peak_k - thermal.ambient_k);
    power.push_back(r->power_w);
    delay.push_back(r->critical_delay_ns);
    wl.push_back(r->wirelength_m);
  }
  for (const auto& r : results) attack.push_back(r.attack_success);
  out.metrics["corr_abs_mean"] = mean(corr);
  out.metrics["peak_rise_k"] = mean(peak_rise);
  out.metrics["power_w"] = mean(power);
  out.metrics["critical_delay_ns"] = mean(delay);
  out.metrics["wirelength_m"] = mean(wl);
  out.metrics["attack_success_mean"] = mean(attack);
}

std::string design_digest(const campaign::CampaignPlan& plan) {
  Digest h;
  for (const service::JobSpec& e : explorations(plan)) {
    const config::ConfigFile cfg =
        config::ConfigFile::parse(e.config_text, "exploration");
    const Floorplan3D fp = service::build_design(e, cfg);
    for (const auto& m : fp.modules()) {
      h.add(m.area_um2);
      h.add(m.power_w);
    }
    h.add(static_cast<std::uint64_t>(fp.nets().size()));
  }
  return h.hex();
}

RunOutcome untraced_pass(const RunRequest& req) {
  RunOutcome out;
  const std::string config_text = campaign_config(req.seed, req.tiny);
  std::vector<double> campaign_s;

  // Set-up is config parsing plus matrix expansion, timed in batches so
  // setup_s is a median of samples of tens of ms.  Queue creation and
  // enqueue are file-system metadata work whose speed follows the host's
  // I/O load (3-4x between runs minutes apart), so they are timed with
  // the drain they serve.
  const std::size_t setup_batch = req.tiny ? 2 : 400;
  const std::size_t setup_samples = req.tiny ? 2 : 15;
  const double setup_s = median_setup_s(
      [&] { (void)plan_matrix(config_text); }, setup_batch, setup_samples);

  std::optional<Report> first_report;
  const auto window = Clock::now();
  // Drain until another cold drain would no longer fit in the window.
  for (std::size_t iter = 0;
       iter == 0 || seconds_since(window) + median(campaign_s) <= req.seconds;
       ++iter) {
    const fs::path cold_dir = req.work_dir / "cold";
    const fs::path warm_dir = req.work_dir / "warm";
    try {
      const campaign::CampaignPlan plan = plan_matrix(config_text);
      const auto t0 = Clock::now();
      service::JobQueue cold = open_queue(config_text, plan, cold_dir, {});
      const auto reports = campaign::drain(cold, plan.options, 1);
      campaign_s.push_back(seconds_since(t0));
      check_reports(reports, false, "cold", out);
      const auto results = campaign::collect_results(cold, plan);
      const Report report = render(plan, results);

      service::JobQueue warm =
          open_queue(config_text, plan, warm_dir, cold.cache_dir());
      check_reports(campaign::drain(warm, plan.options, 1), true, "warm",
                    out);
      ++out.attempted;
      if (!(render(plan, campaign::collect_results(warm, plan)) == report))
        out.fail("warm re-serve report differs from the cold one");

      if (!first_report) {
        first_report = report;
        set_quality(plan, cold, results, out);
        out.design_digest = design_digest(plan);
        Digest d;
        d.add(report.scenarios);
        d.add(report.pareto);
        d.add(report.summary);
        out.output_digest = d.hex();
        out.notes.push_back(
            "campaign: " + std::to_string(plan.jobs.size()) +
            " scenarios, " + std::to_string(explorations(plan).size()) +
            " explorations");
      } else {
        ++out.attempted;
        if (!(report == *first_report))
          out.fail("repeated cold drain produced a different report");
      }
    } catch (const std::exception& e) {
      ++out.attempted;
      out.fail(std::string("campaign iteration: ") + e.what());
    }
    std::error_code ignored;
    fs::remove_all(cold_dir, ignored);
    fs::remove_all(warm_dir, ignored);
  }

  out.metrics["setup_s"] = setup_s;
  out.metrics["op_s"] = median(campaign_s);
  std::string samples;
  for (double v : campaign_s) samples += " " + std::to_string(v);
  out.notes.push_back(
      "campaign_s " + std::to_string(median(campaign_s)) + " s (median of " +
      std::to_string(campaign_s.size()) +
      " cold drains, each with its queue creation and enqueue:" + samples +
      ")");
  out.notes.push_back("setup_s " + std::to_string(setup_s) +
                      " s (median of " + std::to_string(setup_samples) +
                      " batches of " + std::to_string(setup_batch) +
                      " set-ups)");
  return out;
}

RunOutcome traced_pass(const RunRequest& req, Tracer* tracer) {
  RunOutcome out;
  const std::string config_text = campaign_config(req.seed, req.tiny);
  const fs::path cold_dir = req.work_dir / "cold";
  const fs::path traced_dir = req.work_dir / "traced";
  const fs::path warm_dir = req.work_dir / "warm";

  // Reference: the product path, untraced.
  const campaign::CampaignPlan plan = plan_matrix(config_text);
  service::JobQueue cold = open_queue(config_text, plan, cold_dir, {});
  auto t0 = Clock::now();
  check_reports(campaign::drain(cold, plan.options, 1), false, "cold", out);
  const double untraced_s = seconds_since(t0);
  const std::vector<campaign::ScenarioResult> reference =
      campaign::collect_results(cold, plan);
  out.design_digest = design_digest(plan);

  // Traced: same matrix on a fresh queue and cache, stage by stage.
  service::JobQueue queue = open_queue(config_text, plan, traced_dir, {});
  service::ResultCache cache(queue.cache_dir());
  t0 = Clock::now();
  for (const service::JobSpec& e : explorations(plan)) {
    const std::string id = service::job_id(e);
    {
      const config::ConfigFile cfg =
          config::ConfigFile::parse(e.config_text, "exploration");
      Span s(tracer, "benchgen.generate");
      (void)service::build_design(e, cfg);
    }
    Span s(tracer, "service.exploration");
    const service::WorkReport r =
        service::run_job(e, queue.checkpoint_path(id), queue.result_path(id),
                         &cache,
                         queue.options().checkpoint_interval);
    s.end();
    ++out.attempted;
    if (!r.ok || r.cache_hit) out.fail("traced exploration: " + r.error);
  }
  std::vector<campaign::ScenarioResult> results;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const service::JobSpec& job = plan.jobs[i];
    ++out.attempted;
    try {
      Span scenario(tracer, "campaign.scenario");
      const config::ConfigFile job_cfg =
          config::ConfigFile::parse(job.config_text, "job config");
      const campaign::CampaignOptions opt =
          config::make_campaign_options(job_cfg);
      const campaign::ScenarioContext ctx =
          campaign::scenario_context(job, opt);
      const service::JobSpec exploration = campaign::exploration_spec(job);
      const config::ConfigFile cfg =
          config::ConfigFile::parse(exploration.config_text, "exploration");
      const std::optional<service::StoredResult> stored =
          cache.probe(ctx.exploration);
      if (!stored) throw std::runtime_error("exploration missing from cache");

      Span rebuild(tracer, "campaign.rebuild");
      const Floorplan3D fp =
          campaign::rebuild_floorplan(exploration, cfg, *stored);
      rebuild.end();
      ThermalConfig thermal;
      config::apply_thermal(cfg, thermal);
      thermal.grid_nx = opt.attack_grid;
      thermal.grid_ny = opt.attack_grid;

      Span mitigation(tracer, "mitigation." + ctx.mitigation);
      const campaign::MitigationOutcome mitigated = campaign::apply_mitigation(
          fp, thermal, campaign::parse_mitigation(ctx.mitigation), opt,
          campaign::scenario_seed(ctx, "mitigation"));
      mitigation.end();
      const thermal::GridSolver solver(mitigated.floorplan.tech(), thermal);
      Span attack(tracer, "attack." + ctx.attack);
      const double success = campaign::run_attack(
          mitigated.floorplan, solver, campaign::parse_attack(ctx.attack), opt,
          campaign::scenario_seed(ctx, "attack"));
      attack.end();
      Span leak(tracer, "campaign.leakage");
      const campaign::LeakageSummary leakage = campaign::measure_leakage(
          mitigated.floorplan, solver, opt,
          campaign::scenario_seed(ctx, "leakage"));
      leak.end();

      campaign::ScenarioResult r;
      r.context = ctx;
      r.legal = stored->legal;
      r.wirelength_m = stored->wirelength_m;
      r.power_w = stored->power_w;
      r.critical_delay_ns = stored->critical_delay_ns;
      r.peak_k = stored->peak_k;
      r.mitigation_overhead_w = mitigated.overhead_w;
      r.mitigation_performance_loss = mitigated.performance_loss;
      r.mitigation_peak_k = mitigated.peak_k;
      r.attack_success = success;
      r.pearson_abs_max = leakage.pearson_abs_max;
      r.mi_max = leakage.mi_max;
      r.svf = leakage.svf;
      r.spatial_entropy_max = leakage.spatial_entropy_max;
      r.leakage = success;
      r.overhead = stored->power_w * (1.0 + mitigated.performance_loss) +
                   mitigated.overhead_w;
      if (i >= reference.size() || !(r == reference[i]))
        out.fail("traced scenario " + std::to_string(i) +
                 " differs from its collect_results entry");
      results.push_back(r);
    } catch (const std::exception& e) {
      out.fail("traced scenario " + std::to_string(i) + ": " + e.what());
    }
  }
  Report report;
  {
    Span s(tracer, "campaign.report");
    report = render(plan, results);
  }
  const double traced_s = seconds_since(t0);
  ++out.attempted;
  if (!(report == render(plan, reference)))
    out.fail("traced report differs from the cold drain's");
  Digest d;
  d.add(report.scenarios);
  d.add(report.pareto);
  d.add(report.summary);
  out.output_digest = d.hex();

  // Warm re-serve on a fresh queue sharing the cold drain's cache.
  service::JobQueue warm =
      open_queue(config_text, plan, warm_dir, cold.cache_dir());
  Span warm_span(tracer, "service.warm_drain");
  const auto warm_reports = campaign::drain(warm, plan.options, 1);
  const double warm_s = warm_span.end();
  check_reports(warm_reports, true, "warm", out);

  const Tracer& t = *tracer;
  MetricSet& ms = out.metrics;
  set_span_median(ms, t, "benchgen.generate", "ms");
  set_span_median(ms, t, "service.exploration", "ms");
  if (!warm_reports.empty())
    ms["service.cache_hit_ms"] =
        warm_s * 1e3 / static_cast<double>(warm_reports.size());
  for (const char* name :
       {"campaign.rebuild", "mitigation.dtm", "mitigation.noise_injection",
        "attack.localization", "attack.characterization", "attack.monitoring",
        "attack.covert_channel", "attack.heating_fault", "campaign.leakage",
        "campaign.report"})
    set_span_median(ms, t, name, "ms");
  ms["trace.overhead_frac"] =
      untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
  out.notes.push_back("traced " + std::to_string(results.size()) +
                      " scenarios: untraced drain " +
                      std::to_string(untraced_s) + " s vs traced " +
                      std::to_string(traced_s) + " s");

  fs::remove_all(cold_dir);
  fs::remove_all(traced_dir);
  fs::remove_all(warm_dir);
  return out;
}

}  // namespace

RunOutcome run_campaign_workload(const RunRequest& req, Tracer* tracer) {
  // Every exploration generates its design inside the drain; a generator
  // that never returned would hang the drain, so fail fast instead.
  const SeedRange seeds = campaign_seeds(req.seed, req.tiny);
  for (std::uint64_t s = seeds.first; s < seeds.first + seeds.count; ++s)
    require_generation_terminates("n100", s);
  return tracer == nullptr ? untraced_pass(req) : traced_pass(req, tracer);
}

}  // namespace perfbench
