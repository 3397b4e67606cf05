// sgbench: the repository benchmark. Measures the simulator's host-time
// throughput on three workloads with tracing off, or, with --trace 1, runs
// the layer probes and a traced pass of every workload and attributes each
// workload's host time to the repo's layers. See sgbench/README.md.
//
//   sgbench --workload <web-open-loop|swifi-campaign|tracked-invoke>
//           --seed N --seconds S --trace 0|1 [--small] [--spans FILE]
//
// Prints a run header, one "metric <name> <value> <unit>" line per metric,
// and as its last line one JSON object {correct, attempted, failed,
// metrics}. Exits 1 when any correctness gate fails, 2 on bad arguments.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace sgbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;  ///< Tiny units and probes: the smoke test.
  std::string spans_path;
};

/// Everything one invocation learned: metrics plus the gate verdict.
struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void absorb(const UnitResult& unit) {
    attempted += unit.ops;
    failed += unit.failed;
    problems.insert(problems.end(), unit.problems.begin(), unit.problems.end());
  }
};

const char* short_name(const std::string& workload) {
  if (workload == "web-open-loop") return "web";
  if (workload == "swifi-campaign") return "campaign";
  return "track";
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

void print_header(const Options& options) {
  double load1 = -1;
  if (std::FILE* file = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(file, "%lf", &load1) != 1) load1 = -1;
    std::fclose(file);
  }
  const std::string build_type = SGBENCH_BUILD_TYPE;
  std::string cpus;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      if (!cpus.empty()) cpus += ',';
      cpus += std::to_string(cpu);
    }
  }
  std::cout << "{\"sgbench_header\": {\"git_sha\": \"" << json_escape(env_or("SGBENCH_GIT_SHA", "unknown"))
            << "\", \"build_type\": \"" << json_escape(build_type)
            << "\", \"release\": " << (build_type == "Release" ? "true" : "false")
            << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"affinity\": \""
            << cpus << "\", \"loadavg_1m\": " << json_number(load1) << ", \"workload\": \""
            << json_escape(options.workload) << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << json_number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"small\": "
            << (options.small ? "true" : "false") << ", \"sg_pin_cpu\": \""
            << json_escape(env_or("SG_PIN_CPU", "")) << "\"}}\n";
  if (build_type != "Release") {
    std::cerr << "sgbench: WARNING: build type '" << build_type
              << "' is not Release; timings are not comparable\n";
  }
}

void check_same(const std::string& what, const std::string& first, const std::string& again,
                Outcome& outcome) {
  if (first != again) outcome.problems.push_back(what + ": model output differs between same-seed repeats");
}

struct UnitSeries {
  UnitResult first;                  ///< The warm-up unit: checked, not timed.
  std::vector<double> rates;         ///< Ops per host second of each later unit.
  std::vector<double> speeds;        ///< host_speed() measured after each.
  std::vector<double> scaled_s;      ///< Each one's reference-host seconds.
  std::vector<double> scaled_rates;  ///< Ops per reference-host second.
  /// Every later unit's host-time samples (UnitResult::samples), scaled.
  std::map<std::string, std::vector<double>> samples;
};

/// Runs untraced units until `seconds` have passed and at least `min_units`
/// timed units ran. Every unit repeats the same input, so each must give the
/// warm-up unit's model output (the same-seed repeat gate).
UnitSeries run_units(Workload& workload, const std::string& name, double seconds, int min_units,
                     Outcome& outcome) {
  UnitSeries series;
  const Clock::time_point start = Clock::now();
  {
    Spans::Scope scope(spans(), "unit.warmup");
    series.first = workload.run_unit(false);
  }
  outcome.absorb(series.first);
  while (static_cast<int>(series.rates.size()) < min_units ||
         seconds_between(start, Clock::now()) < seconds) {
    UnitResult unit;
    {
      Spans::Scope scope(spans(), "unit");
      unit = workload.run_unit(false);
    }
    outcome.absorb(unit);
    check_same(name, series.first.model, unit.model, outcome);
    const double speed = host_speed();
    const double scaled_s = unit.host_s * speed;
    series.rates.push_back(static_cast<double>(unit.ops) / unit.host_s);
    series.speeds.push_back(speed);
    series.scaled_s.push_back(scaled_s);
    series.scaled_rates.push_back(static_cast<double>(unit.ops) / scaled_s);
    for (const auto& [key, values] : unit.samples) {
      for (const double value : values) series.samples[key].push_back(value * speed);
    }
  }
  Spans::Scope scope(spans(), "cross_check");
  for (const std::string& problem : workload.cross_check(series.first)) outcome.problems.push_back(problem);
  return series;
}

// --- timed run (--trace 0) ----------------------------------------------------

/// Set-ups per run, reported as their median.
constexpr int kSetups = 51;

Outcome timed_run(const Options& options) {
  Outcome outcome;
  auto workload = make_workload(options.workload, options.seed, options.small);
  // Set-up times are scaled to the reference host like unit throughput.
  std::vector<double> setups;
  {
    Spans::Scope scope(spans(), "setups");
    for (int i = 0; i < (options.small ? 3 : kSetups); ++i) {
      const double setup_s = workload->setup();
      setups.push_back(setup_s * host_speed());
    }
  }
  const UnitSeries series = run_units(*workload, options.workload, options.seconds, 2, outcome);
  outcome.metrics.add("norm_ops_per_s", median(series.scaled_rates), "1/s");
  outcome.metrics.add("setup_s", median(setups), "s");
  outcome.metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
  std::cout << "# " << series.rates.size() << " timed units; unscaled ops/s median "
            << median(series.rates) << "; host speed median " << median(series.speeds)
            << "; model digest " << (fnv1a(series.first.model) & ((1ULL << 52) - 1)) << "\n";
  return outcome;
}

// --- traced run (--trace 1) -----------------------------------------------------

struct WorkloadPass {
  std::string name;
  UnitResult untraced;  ///< The warm-up unit (its values feed the report).
  std::map<std::string, std::vector<double>> samples;  ///< Of the timed units.
  UnitResult traced;
  double host_us_per_op = 0;
  double overhead_pct = 0;
};

/// Untraced units for a share of the run, then traced units of the same
/// input. Tracing must not change the model output.
WorkloadPass traced_pass(const std::string& name, const Options& options, Outcome& outcome) {
  Spans::Scope scope(spans(), "workload." + name);
  WorkloadPass pass;
  pass.name = name;
  auto workload = make_workload(name, options.seed, options.small);
  const UnitSeries series = run_units(*workload, name, options.seconds / 6, 2, outcome);
  pass.untraced = series.first;
  pass.samples = series.samples;
  std::vector<double> traced_s;
  for (int i = 0; i < 2; ++i) {
    {
      Spans::Scope unit_scope(spans(), "unit.traced");
      pass.traced = workload->run_unit(true);
    }
    outcome.absorb(pass.traced);
    traced_s.push_back(pass.traced.host_s * host_speed());
    if (pass.traced.model != series.first.model) {
      outcome.problems.push_back(name + ": tracing changed the model output");
    }
  }
  pass.host_us_per_op = 1e6 / median(series.scaled_rates);
  pass.overhead_pct = (median(traced_s) / median(series.scaled_s) - 1.0) * 100.0;
  return pass;
}

double per(double count, double ops) { return ops > 0 ? count / ops : 0.0; }

/// Adds the per-workload count, attribution and model metrics of one pass.
void report_pass(const WorkloadPass& pass, const ProbeCosts& costs, double c3_ns_per_sigma,
                 Metrics& metrics) {
  const std::string wl = short_name(pass.name);
  const Counts& c = pass.traced.counts;
  const double ops = static_cast<double>(pass.traced.ops);
  const double boots = std::max(1.0, c.boots);
  const double threads = c.threads / boots;  // Live threads per machine.

  metrics.add("kernel.invokes_per_op." + wl, per(c.invokes, ops), "count");
  metrics.add("kernel.dispatches_per_op." + wl, per(c.dispatches, ops), "count");
  metrics.add("kernel.blocks_per_op." + wl, per(c.blocks, ops), "count");
  metrics.add("kernel.wakes_per_op." + wl, per(c.wakes, ops), "count");
  // Campaign episodes own their kernels, so only the trace sees inside them.
  if (wl != "campaign") metrics.add("kernel.clock_jumps_per_op." + wl, per(c.clock_jumps, ops), "count");
  metrics.add("kernel.threads." + wl, threads, "count");
  metrics.add("c3.sigma_per_op." + wl, per(c.sigmas, ops), "count");
  metrics.add("c3.walk_steps_per_op." + wl, per(c.walk_steps, ops), "count");
  if (wl != "track") {  // The workloads that inject faults.
    metrics.add("c3.walk_abort_ratio." + wl, per(c.walk_aborts, c.walks), "ratio");
    metrics.add("c3.mechanisms_per_fault." + wl, per(c.mechanisms, c.faults), "count");
    metrics.add("recovery.reboots_per_op." + wl, per(c.reboots, ops), "count");
  }
  metrics.add("trace.overhead_pct." + wl, pass.overhead_pct, "%");
  const double untraced_ops = static_cast<double>(pass.untraced.ops);
  metrics.add("ops." + wl, untraced_ops, "count");
  metrics.add("ops_failed." + wl, static_cast<double>(pass.untraced.failed), "count");
  metrics.add("failed_ratio." + wl, per(static_cast<double>(pass.untraced.failed), untraced_ops), "ratio");

  // Attribution: count per op x probe unit cost / host time per op.
  std::vector<std::pair<std::string, double>> layers_us = {
      {"kernel_handoff", per(c.dispatches, ops) * costs.switch_us_at(threads)},
      {"kernel_invoke", per(c.invokes, ops) * costs.invoke_ns / 1e3},
      {"components_handler", per(c.invokes, ops) * costs.handler_ns() / 1e3},
      {"kernel_spawn", per(c.threads, ops) * costs.thd_spawn_us},
      {"components_boot", per(c.boots, ops) * (costs.boot_us + costs.teardown_us)},
      {"c3_track", per(c.sigmas, ops) * c3_ns_per_sigma / 1e3},
  };
  if (wl != "track") {
    layers_us.emplace_back("recovery", per(c.reboots, ops) * costs.reboot_us +
                                           per(c.walks, ops) * costs.walk_us_per_desc);
  }
  if (wl == "web") {  // One parse, one submit and one wire exchange per request.
    layers_us.emplace_back("websrv", (costs.parse_ns + costs.submit_ns) / 1e3 + costs.netstack_us);
  }
  double attributed = 0;
  for (const auto& [layer, us] : layers_us) {
    const double share = us / pass.host_us_per_op;
    attributed += share;
    metrics.add("attrib." + wl + "." + layer + "_share", share, "ratio");
  }
  metrics.add("attrib." + wl + ".unattributed_share", 1.0 - attributed, "ratio");
}

Outcome traced_run(const Options& options) {
  Outcome outcome;
  ProbeCosts costs;
  {
    Spans::Scope scope(spans(), "probes");
    costs = run_probes(options.seed, options.small);
  }
  std::vector<WorkloadPass> passes;
  for (const std::string& name : workload_names()) passes.push_back(traced_pass(name, options, outcome));
  const WorkloadPass& web = passes[0];
  const WorkloadPass& campaign = passes[1];
  const WorkloadPass& track = passes[2];

  Metrics& m = outcome.metrics;
  m.add("kernel.switch_us.n2", costs.switch_us_n2, "us");
  m.add("kernel.switch_us.n8", costs.switch_us_n8, "us");
  m.add("kernel.switch_us.n16", costs.switch_us_n16, "us");
  m.add("kernel.invoke_ns", costs.invoke_ns, "ns");
  m.add("kernel.thd_spawn_us", costs.thd_spawn_us, "us");
  m.add("components.boot_us", costs.boot_us, "us");
  m.add("components.teardown_us", costs.teardown_us, "us");
  m.add("c3.track_ns", costs.c3_track_ns, "ns");
  m.add("c3stubs.track_ns", costs.c3stubs_track_ns, "ns");
  m.add("c3.walk_us_per_desc", costs.walk_us_per_desc, "us");
  m.add("booter.reboot_us", costs.reboot_us, "us");
  m.add("websrv.parse_ns", costs.parse_ns, "ns");
  m.add("websrv.submit_ns", costs.submit_ns, "ns");
  m.add("websrv.netstack_us", costs.netstack_us, "us");
  m.add("components.handler_ns", costs.handler_ns(), "ns");

  // c3.track_ns is per op of the tracked mix; per σ transition it prices the
  // σ counts of the other workloads.
  const double track_sigma_per_op = per(track.traced.counts.sigmas, static_cast<double>(track.traced.ops));
  const double c3_ns_per_sigma =
      track_sigma_per_op > 0 ? std::max(0.0, costs.c3_track_ns) / track_sigma_per_op : 0.0;
  for (const WorkloadPass& pass : passes) report_pass(pass, costs, c3_ns_per_sigma, m);

  const auto& wv = web.untraced.values;
  const double lookups = wv.at("cache_hits") + wv.at("cache_misses");
  m.add("websrv.cache_hit_ratio", per(wv.at("cache_hits"), lookups), "ratio");
  m.add("websrv.handle_refreshes_per_crash", per(wv.at("handle_refreshes"), wv.at("crashes")), "count");
  m.add("websrv.connections_opened", wv.at("connections_opened"), "count");

  std::vector<double> all_episodes;
  for (const auto& [key, samples] : campaign.samples) {
    m.add("swifi." + key, median(samples), "ms");
    all_episodes.insert(all_episodes.end(), samples.begin(), samples.end());
  }
  m.add("swifi.episode_ms_p99", percentile(all_episodes, 99), "ms");
  m.add("swifi.activation_ratio", campaign.untraced.values.at("activation_ratio"), "ratio");

  m.add("model.web.vlat_p50_us", wv.at("vlat_p50_us"), "us");
  m.add("model.web.vlat_p99_us", wv.at("vlat_p99_us"), "us");
  m.add("model.web.vlat_p999_us", wv.at("vlat_p999_us"), "us");
  m.add("model.web.goodput_fault_rps", wv.at("goodput_fault_rps"), "1/s");
  m.add("model.campaign.virtual_ms_per_episode", campaign.untraced.values.at("virtual_ms_per_episode"), "ms");
  m.add("model.campaign.unrecovered_ratio", campaign.untraced.values.at("unrecovered_ratio"), "ratio");
  std::uint64_t digest = fnv1a("sgbench");
  for (const WorkloadPass& pass : passes) digest = fnv1a(pass.untraced.model, digest);
  // 52 bits: exact as a JSON number.
  m.add("model.sim_digest", static_cast<double>(digest & ((1ULL << 52) - 1)), "hash");
  return outcome;
}

int usage(const std::string& error) {
  std::cerr << "sgbench: " << error
            << "\nusage: sgbench --workload <web-open-loop|swifi-campaign|tracked-invoke> --seed N "
               "--seconds S --trace 0|1 [--small] [--spans FILE]\n";
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      options.small = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == options.workload;
  if (!known) return usage("unknown workload '" + options.workload + "'");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  print_header(options);
  const Outcome outcome = options.trace ? traced_run(options) : timed_run(options);

  for (const Metric& metric : outcome.metrics.all()) {
    std::cout << "metric " << metric.name << " " << json_number(metric.value) << " " << metric.unit << "\n";
  }
  for (const std::string& problem : outcome.problems) std::cerr << "sgbench: GATE: " << problem << "\n";
  if (!options.spans_path.empty()) {
    std::ofstream out(options.spans_path);
    spans().write_chrome(out);
    if (!out) std::cerr << "sgbench: cannot write spans to " << options.spans_path << "\n";
  }
  const bool correct = outcome.problems.empty();
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : outcome.metrics.all()) {
    line << (first ? "" : ", ") << "\"" << json_escape(metric.name) << "\": {\"value\": "
         << json_number(metric.value) << ", \"unit\": \"" << json_escape(metric.unit) << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sgbench

int main(int argc, char** argv) {
  try {
    return sgbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "sgbench: error: " << error.what() << "\n";
    return 1;
  }
}
