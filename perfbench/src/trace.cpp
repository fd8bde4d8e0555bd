#include "trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace

std::size_t Tracer::open(std::string name) {
  Record r;
  r.name = std::move(name);
  r.parent = open_.empty() ? kNoParent : open_.back();
  r.start_ns = ns_between(epoch_, Clock::now());
  spans_.push_back(std::move(r));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double Tracer::close(std::size_t index) {
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("perfbench: spans must close innermost-first");
  open_.pop_back();
  Record& r = spans_[index];
  r.end_ns = ns_between(epoch_, Clock::now());
  return static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : spans_)
    if (r.name == name && r.end_ns >= r.start_ns)
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-6);
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(r.start_ns) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << r.name << "\"," << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":"
        << (r.parent == kNoParent ? std::string("null")
                                  : std::to_string(r.parent))
        << "}}";
  }
  out << "\n]}\n";
}

void set_span_median(MetricSet& metrics, const Tracer& tracer,
                     const std::string& span, const std::string& unit) {
  const std::vector<double> ms = tracer.durations_ms(span);
  if (ms.empty()) return;
  metrics[span + "_" + unit] = median(ms) * (unit == "us" ? 1e3 : 1.0);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::uint64_t v) { add_bytes(&v, sizeof v); }

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  add_bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream) {
  std::uint64_t z = workload_seed * 0x9e3779b97f4a7c15ULL + stream +
                    0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
