// Reporting plumbing for the benchmark: named metrics with units, the
// benchmark's own spans (Chrome trace_event on disk), and small statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sgbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Host speed varies by tens of percent over seconds to minutes on a shared
/// VM (steal, co-runners on the core, frequency), and it moves all work
/// running at that moment roughly alike. So every host-time sample the
/// benchmark reports is followed by fixed reference work, compiled into the
/// benchmark and never changed, and is multiplied by host_speed() measured
/// then. The result is host time on the reference host: the 4-vCPU shared
/// VM the README.md baseline was measured on, whose typical reference rate
/// this is.
constexpr double kReferenceRunsPerS = 225.0;

/// How fast the host runs the reference work right now, relative to the
/// reference host (1: as fast). The work, about 4 ms of it, is ordered-map
/// lookups over short strings, hashing, a sort and heap churn.
double host_speed();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in the order they were added; names are unique.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Spans the benchmark records around every call it makes into the
/// simulator: name, start, end and the enclosing span. Kept in memory and
/// written once at exit. Recorded from the benchmark's main thread only.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans& spans, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_;
  };

  Spans();
  /// Chrome trace_event JSON: one complete ("X") event per span, with the
  /// parent span's index in args.
  void write_chrome(std::ostream& out) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    long parent = -1;
  };
  double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// The process-wide span recorder.
Spans& spans();

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// FNV-1a 64 over `bytes`, continuing from `hash`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

std::string json_escape(std::string_view text);
/// A double rendered with every significant digit (round-trips exactly).
std::string json_number(double value);

}  // namespace sgbench
