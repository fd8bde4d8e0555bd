// tsc3d perfbench -- the interface every workload implements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// What one benchmark invocation asks for.
struct RunRequest {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window of the untraced pass
  bool trace = false;     ///< traced pass (per-layer metrics) instead
  bool tiny = false;      ///< smoke budget: fewer designs and moves
  std::filesystem::path work_dir;  ///< scratch space inside the checkout
};

/// Outcome of one run.  `metrics` holds end-to-end figures on the
/// untraced pass and per-layer figures on the traced pass.
struct RunOutcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  MetricSet metrics;
  /// Digest of the generated inputs (changes with the workload seed).
  std::string design_digest;
  /// Digest of every deterministic output (identical for a speed-only
  /// change of the library).
  std::string output_digest;
  std::vector<std::string> notes;  ///< human-readable lines, printed as-is
  std::vector<std::string> errors; ///< one line per failed operation

  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
};

RunOutcome run_flow_workload(const RunRequest& req, Tracer* tracer);
RunOutcome run_campaign_workload(const RunRequest& req, Tracer* tracer);

/// Throw std::runtime_error unless benchgen::generate(benchmark, seed)
/// returns within a few seconds.  The call runs in a forked child that is
/// killed and reaped on timeout, so a generator that never returns fails
/// the run fast instead of hanging it.
void require_generation_terminates(const std::string& benchmark,
                                   std::uint64_t seed);

}  // namespace perfbench
