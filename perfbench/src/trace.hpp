// tsc3d perfbench -- spans, samples and digests shared by the workloads.
//
// Spans are recorded only in the benchmark's own files, around the calls
// it makes into each tsc3d module: name, start, end and the span that
// caused it.  They stay in memory and are written out once, when the run
// ends.  A null Tracer* means "untraced": Span then costs one branch.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Record {
    std::string name;
    std::size_t parent = kNoParent;  ///< index into records(), or kNoParent
    std::int64_t start_ns = 0;       ///< since the tracer was created
    std::int64_t end_ns = 0;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  Tracer() : epoch_(Clock::now()) {}

  /// Open a span as a child of the innermost open one; returns its index.
  std::size_t open(std::string name);
  /// Close span `index` (must be the innermost open one); returns its
  /// duration in seconds.
  double close(std::size_t index);

  [[nodiscard]] const std::vector<Record>& records() const { return spans_; }
  /// Durations [ms] of every closed span named `name`, in record order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Write every span as one JSON document (Chrome trace-event format).
  void write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* tracer, std::string name)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(std::move(name)) : 0) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close early; returns the span's duration [s] (0 when untraced or
  /// already closed).
  double end() {
    if (tracer_ == nullptr) return 0.0;
    Tracer* t = tracer_;
    tracer_ = nullptr;
    return t->close(index_);
  }

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// Named figures of one run, metric name -> value.  Units live in the
/// metric tables of main.cpp.  Layers a workload bypasses are not set.
using MetricSet = std::map<std::string, double>;

/// Set metric `<span>_<unit>` to the median duration of the spans named
/// `span`, in `unit` ("ms" or "us"); leaves it unset when no such span
/// was recorded (the layer was bypassed).
void set_span_median(MetricSet& metrics, const Tracer& tracer,
                     const std::string& span, const std::string& unit);

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Median wall time [s] of one call of `setup`.  After one discarded
/// warm-up call, `samples` batches of `batch` calls are timed, each batch
/// long enough (tens of ms) that timer and scheduler jitter average out.
template <class Setup>
[[nodiscard]] double median_setup_s(Setup&& setup, std::size_t batch,
                                    std::size_t samples) {
  setup();
  std::vector<double> per_call;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < batch; ++b) setup();
    per_call.push_back(seconds_since(t0) / static_cast<double>(batch));
  }
  return median(std::move(per_call));
}

/// FNV-1a 64 over the exact bytes of deterministic outputs.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(double v);
  void add(std::uint64_t v);
  void add(const std::string& s);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// splitmix64: derives independent design / RNG seeds from the workload
/// seed, so the library only ever sees the generated inputs.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t workload_seed,
                                        std::uint64_t stream);

}  // namespace perfbench
