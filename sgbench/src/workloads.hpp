// The three benchmark workloads. Each runs at cores=1 from this one process,
// drives the simulator through its public APIs only, and derives every input
// from the seed it is given.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "components/system.hpp"

namespace sgbench {

/// Kernel and recovery-layer event totals over one unit. Event counts come
/// from the program's tracer, so only traced units fill them in.
struct Counts {
  double invokes = 0;
  /// Simulated context switches (thread handoffs). Estimated as blocks +
  /// threads for the campaign, whose kernels are private to each episode.
  double dispatches = 0;
  double blocks = 0;
  double wakes = 0;
  double clock_jumps = 0;
  double threads = 0;
  double boots = 0;  ///< Fresh System constructions inside the timed work.
  double sigmas = 0;
  double walks = 0;
  double walk_steps = 0;
  double walk_aborts = 0;
  double mechanisms = 0;
  double faults = 0;
  double reboots = 0;
};

struct UnitResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double host_s = 0.0;  ///< Host seconds of the timed work alone.
  /// Canonical virtual-time output of the unit. Same seed, same string.
  std::string model;
  /// Correctness-gate findings (invariant violations, trace drops, wrong
  /// results). Empty when the unit is sound.
  std::vector<std::string> problems;
  Counts counts;
  /// Workload-specific numbers (cache hits, model latencies, ...).
  std::map<std::string, double> values;
  /// Workload-specific host-time samples (per-cell episode times).
  std::map<std::string, std::vector<double>> samples;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up exactly as each timed unit pays it, up to its first timed
  /// op. Returns host seconds.
  virtual double setup() = 0;
  /// One unit of timed work. Identical input every call.
  virtual UnitResult run_unit(bool traced) = 0;
  /// Checks a unit's model output against an independent path through the
  /// program (empty: nothing to compare). Runs outside any timing.
  virtual std::vector<std::string> cross_check(const UnitResult& unit) {
    (void)unit;
    return {};
  }
};

/// A cores=1 machine, tracing off (traced units switch it on themselves).
sg::components::SystemConfig machine(std::uint64_t seed, sg::components::FtMode mode);

/// Names accepted by make_workload, in report order.
const std::vector<std::string>& workload_names();

/// `small` shrinks every unit for the smoke test.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, bool small);

/// The tracked-invoke unit in a chosen FT mode (the c3 probes compare modes
/// on the same op mix).
UnitResult run_tracked_unit(std::uint64_t seed, sg::components::FtMode mode, int pairs);

}  // namespace sgbench
