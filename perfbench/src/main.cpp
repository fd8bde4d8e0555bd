// tsc3d perfbench -- the end-to-end flow benchmark program.
//
//   tsc3d_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--tiny]
//
// Workloads: tsc_n100, pa_n1000 (floorplanning flows) and campaign_mix
// (attack x mitigation campaign).  One closed-loop client, single
// threaded.  --trace 0 measures the end-to-end metrics on the product
// entry points; --trace 1 is a separate traced pass that reports the
// per-layer metrics.  Human-readable lines come first; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
// See README.md beside this file.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "thermal/thermal_engine.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void require_generation_terminates(const std::string& benchmark,
                                   std::uint64_t seed) {
  constexpr double kTimeoutS = 10.0;
  const std::string call = "benchgen::generate(\"" + benchmark + "\", " +
                           std::to_string(seed) + ")";
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    (void)tsc3d::benchgen::generate(benchmark, seed);
    std::_Exit(0);
  }
  const auto start = Clock::now();
  int status = 0;
  for (;;) {
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (done < 0) throw std::runtime_error("waitpid failed");
    if (seconds_since(start) > kTimeoutS) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      throw std::runtime_error(call + " did not return within " +
                               std::to_string(kTimeoutS) + " s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error(call + " crashed");
}

namespace {

/// Peak resident set size of this process [MB].
double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json, in order (test_perfbench.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_s", "s"},
    {"peak_rss_mb", "MB"},
    {"corr_abs_mean", "ratio"},
    {"peak_rise_k", "K"},
    {"power_w", "W"},
    {"critical_delay_ns", "ns"},
    {"wirelength_m", "m"},
    {"attack_success_mean", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"benchgen.generate_ms", "ms"},
    {"floorplan.init_ms", "ms"},
    {"floorplan.begin_ms", "ms"},
    {"floorplan.stage_ms.p50", "ms"},
    {"floorplan.stage_ms.p90", "ms"},
    {"floorplan.finish_ms", "ms"},
    {"floorplan.moves", "count"},
    {"floorplan.moves_per_s", "1/s"},
    {"floorplan.accept_ratio", "ratio"},
    {"floorplan.full_evals", "count"},
    {"thermal.blur_calibrate_ms", "ms"},
    {"thermal.loop_solves", "count"},
    {"thermal.loop_sweeps_per_solve", "count"},
    {"thermal.loop_assembly_reuse_ratio", "ratio"},
    {"thermal.loop_warm_ratio", "ratio"},
    {"thermal.probe_warm_solve_us", "us"},
    {"thermal.sampling_solves", "count"},
    {"thermal.sampling_vcycles", "count"},
    {"thermal.verify_ms", "ms"},
    {"thermal.verify_vcycles", "count"},
    {"thermal.mg_stalls", "count"},
    {"leakage.probe_power_map_us", "us"},
    {"leakage.probe_entropy_us", "us"},
    {"leakage.probe_pearson_us", "us"},
    {"leakage.verify_metrics_ms", "ms"},
    {"tsv.probe_plan_us", "us"},
    {"tsv.signal_plan_ms", "ms"},
    {"tsv.dummy_insert_ms", "ms"},
    {"tsv.dummy_iterations", "count"},
    {"power.probe_timing_us", "us"},
    {"power.probe_voltage_us", "us"},
    {"power.voltage_assign_ms", "ms"},
    {"service.exploration_ms", "ms"},
    {"service.cache_hit_ms", "ms"},
    {"campaign.rebuild_ms", "ms"},
    {"mitigation.dtm_ms", "ms"},
    {"mitigation.noise_injection_ms", "ms"},
    {"attack.localization_ms", "ms"},
    {"attack.characterization_ms", "ms"},
    {"attack.monitoring_ms", "ms"},
    {"attack.covert_channel_ms", "ms"},
    {"attack.heating_fault_ms", "ms"},
    {"campaign.leakage_ms", "ms"},
    {"campaign.report_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

RunRequest parse_args(int argc, char** argv) {
  RunRequest req;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      req.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      req.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      req.seconds = std::stod(value());
    } else if (arg == "--trace") {
      req.trace = value() != "0";
    } else if (arg == "--work-dir") {
      req.work_dir = value();
      have_dir = true;
    } else if (arg == "--tiny") {
      req.tiny = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_dir)
    throw std::invalid_argument("--workload and --work-dir are required");
  return req;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const RunRequest& req) {
  std::filesystem::create_directories(req.work_dir);
  std::cout << "host nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << cpu_model() << "\" compiler=\"" PERFBENCH_COMPILER
            << "\" build=" PERFBENCH_BUILD_TYPE
            << " avx2_sweep=" << (tsc3d::thermal::sweep_simd_enabled() ? 1 : 0)
            << " threads=1\n";
  std::cout << "workload " << req.workload << " seed " << req.seed
            << " seconds " << req.seconds << " trace " << (req.trace ? 1 : 0)
            << (req.tiny ? " budget tiny" : "") << "\n";

  Tracer tracer;
  Tracer* t = req.trace ? &tracer : nullptr;
  RunOutcome out;
  if (req.workload == "tsc_n100" || req.workload == "pa_n1000")
    out = run_flow_workload(req, t);
  else if (req.workload == "campaign_mix")
    out = run_campaign_workload(req, t);
  else
    throw std::invalid_argument("unknown workload " + req.workload);
  if (!req.trace) out.metrics["peak_rss_mb"] = peak_rss_mb();

  for (const std::string& n : out.notes) std::cout << n << "\n";
  for (const std::string& e : out.errors) std::cout << "FAILED " << e << "\n";
  std::cout << "design_digest " << out.design_digest << "\n";
  std::cout << "output_digest " << out.output_digest << "\n";
  const double fail_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0;
  std::cout << "fail_frac " << number(fail_frac) << " ratio (" << out.failed
            << " of " << out.attempted << " operations)\n";

  std::string json = "{\"correct\": ";
  bool correct = out.failed == 0 && out.attempted > 0;
  std::string metrics;
  const std::vector<MetricDef> defs =
      req.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                         std::end(kPerLayer))
                : std::vector<MetricDef>(std::begin(kEndToEnd),
                                         std::end(kEndToEnd));
  for (const MetricDef& def : defs) {
    const auto it = out.metrics.find(def.name);
    const bool have = it != out.metrics.end();
    if (!have && !req.trace) {
      // An end-to-end metric the workload failed to produce.
      correct = false;
      std::cout << "FAILED metric " << def.name << " missing\n";
    }
    const double v = have ? it->second : 0.0;
    std::cout << "metric " << def.name << " " << number(v) << " " << def.unit
              << (have ? "" : " (layer bypassed)") << "\n";
    metrics += (metrics.empty() ? "" : ", ");
    metrics += "\"" + json_escape(def.name) + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + json_escape(def.unit) + "\"}";
  }
  if (req.trace) {
    const std::string name =
        "trace-" + req.workload + "-" + std::to_string(req.seed) + ".json";
    tracer.write_json((req.work_dir / name).string());
    std::cout << "trace " << tracer.records().size() << " spans in " << name
              << "\n";
  }
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "tsc3d_perfbench: " << e.what() << "\n";
    return 2;
  }
}
