#include "workloads.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "c3/storage.hpp"
#include "c3stubs/c3_stubs.hpp"
#include "campaign/campaign.hpp"
#include "components/trace_check.hpp"
#include "report.hpp"
#include "swifi/swifi.hpp"
#include "util/rng.hpp"
#include "websrv/loadgen.hpp"

namespace sgbench {

using sg::components::FtMode;
using sg::components::System;
using sg::components::SystemConfig;
using sg::kernel::Value;
using sg::trace::EventKind;

SystemConfig machine(std::uint64_t seed, FtMode mode) {
  SystemConfig config;
  config.seed = seed;
  config.mode = mode;
  config.cores = 1;
  config.trace = false;  // Traced units switch it on after sizing the rings.
  return config;
}

namespace {

// Ring capacities tried for a traced unit, smallest first: a unit whose
// trace overflowed is rerun with the next size, so a traced unit that
// reports counts has dropped no event.
constexpr std::size_t kFirstRing = 1u << 16;
constexpr std::size_t kLastRing = 1u << 20;

void start_tracing(System& sys, std::size_t ring) {
  sys.kernel().tracer().set_capacity(ring);
  sys.kernel().tracer().set_enabled(true);
}

/// Reads the kernel's own counters after run().
void add_kernel_counts(System& sys, Counts& counts) {
  auto& kern = sys.kernel();
  for (const auto& core : kern.core_stats()) counts.dispatches += static_cast<double>(core.dispatches);
  counts.clock_jumps += static_cast<double>(kern.clock().jumps());
  counts.threads += static_cast<double>(kern.thread_ids().size());
  counts.boots += 1;
}

void add_event(EventKind kind, Counts& counts) {
  switch (kind) {
    case EventKind::kInvokeEnter: ++counts.invokes; break;
    case EventKind::kMicroReboot: ++counts.reboots; break;
    case EventKind::kBlock: ++counts.blocks; break;
    case EventKind::kWake: ++counts.wakes; break;
    case EventKind::kDescSigma: ++counts.sigmas; break;
    case EventKind::kWalkBegin: ++counts.walks; break;
    case EventKind::kWalkStep: ++counts.walk_steps; break;
    case EventKind::kWalkAbort: ++counts.walk_aborts; break;
    case EventKind::kMechanism: ++counts.mechanisms; break;
    case EventKind::kFault: ++counts.faults; break;
    default: break;
  }
}

/// Counts and gates of a traced System after run(): no dropped event, no
/// recovery-invariant violation. Returns false when the ring overflowed.
bool finish_traced(System& sys, UnitResult& unit) {
  const auto snap = sys.kernel().tracer().snapshot();
  if (snap.dropped != 0) return false;
  for (const auto& event : snap.events) add_event(event.kind, unit.counts);
  for (const std::string& violation : sg::components::check_recovery_invariants(sys)) {
    unit.problems.push_back(violation);
  }
  return true;
}

}  // namespace

// --- tracked-invoke ---------------------------------------------------------

namespace {

struct TrackRun {
  UnitResult unit;
  double setup_s = 0.0;
  bool complete = true;  ///< False: the trace ring overflowed.
};

/// One tracked-invoke machine: boot, allocate one descriptor per service,
/// then `pairs` seeded picks from the Fig 6(a) op mix (lock take/release,
/// ramfs lseek/read, evt trigger/wait, mman touch) on one simulated thread.
TrackRun track_run(std::uint64_t seed, FtMode mode, int pairs, std::size_t ring) {
  TrackRun run;
  UnitResult& unit = run.unit;
  const Clock::time_point boot = Clock::now();
  System sys(machine(seed, mode));
  if (mode == FtMode::kC3) sg::c3stubs::install_c3_stubs(sys);
  if (ring != 0) start_tracing(sys, ring);
  auto& kern = sys.kernel();
  auto& app = sys.create_app("track");
  Clock::time_point first;
  Clock::time_point last;
  std::uint64_t digest = fnv1a("track");

  kern.thd_create("track", 10, [&] {
    sg::components::LockClient lock(sys.invoker(app, "lock"), kern);
    sg::components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
    sg::components::EvtClient evt(sys.invoker(app, "evt"));
    sg::components::MmClient mm(sys.invoker(app, "mman"));
    sg::Rng rng(seed);
    std::string body(64, ' ');
    for (char& ch : body) ch = static_cast<char>('a' + rng.next_below(26));
    const Value lockid = lock.alloc(app.id());
    const Value fd = fs.open(sg::c3::StorageComponent::hash_id("/sgbench/track"));
    fs.write(fd, body);
    const Value evtid = evt.split(app.id());
    const Value mapid = mm.get_page(app.id(), 0x100000);

    // An op fails when it returns an error code or the wrong value.
    auto check = [&](Value got, bool ok) {
      ++unit.ops;
      if (!ok) ++unit.failed;
      digest = fnv1a(std::string_view(reinterpret_cast<const char*>(&got), sizeof got), digest);
    };
    first = Clock::now();
    for (int pair = 0; pair < pairs; ++pair) {
      switch (rng.next_below(4)) {
        case 0: {
          const Value took = lock.take(app.id(), lockid);
          check(took, took == sg::kernel::kOk);
          const Value released = lock.release(app.id(), lockid);
          check(released, released == sg::kernel::kOk);
          break;
        }
        case 1: {
          const auto offset = static_cast<Value>(rng.next_below(body.size()));
          const Value seeked = fs.lseek(fd, offset);
          check(seeked, seeked == sg::kernel::kOk);
          const std::string byte = fs.read(fd, 1);
          check(byte.empty() ? -1 : byte[0],
                byte.size() == 1 && byte[0] == body[static_cast<std::size_t>(offset)]);
          break;
        }
        case 2: {
          const Value triggered = evt.trigger(app.id(), evtid);
          check(triggered, triggered == sg::kernel::kOk);
          const Value delivered = evt.wait(app.id(), evtid);  // Pending: no block.
          check(delivered, delivered == 1);
          break;
        }
        default: {
          const Value frame = mm.touch(app.id(), mapid);
          check(frame, frame >= 0);
          break;
        }
      }
    }
    last = Clock::now();
  });
  kern.run();

  run.setup_s = seconds_between(boot, first);
  unit.host_s = seconds_between(first, last);
  add_kernel_counts(sys, unit.counts);
  if (ring != 0) run.complete = finish_traced(sys, unit);
  std::ostringstream model;
  model << "{\"workload\":\"tracked-invoke\",\"mode\":\"" << sg::components::to_string(mode)
        << "\",\"ops\":" << unit.ops << ",\"failed\":" << unit.failed
        << ",\"invokes\":" << kern.invocation_count() << ",\"virtual_end_us\":" << kern.now()
        << ",\"result_digest\":" << digest << "}";
  unit.model = model.str();
  return run;
}

class TrackedInvoke final : public Workload {
 public:
  TrackedInvoke(std::uint64_t seed, bool small) : seed_(seed), pairs_(small ? 2000 : 40000) {}

  double setup() override { return track_run(seed_, FtMode::kSuperGlue, 0, 0).setup_s; }

  UnitResult run_unit(bool traced) override {
    if (!traced) return track_run(seed_, FtMode::kSuperGlue, pairs_, 0).unit;
    for (std::size_t ring = kFirstRing;; ring *= 4) {
      TrackRun run = track_run(seed_, FtMode::kSuperGlue, pairs_, ring);
      if (run.complete) return run.unit;
      if (ring >= kLastRing) {
        run.unit.problems.push_back("tracked-invoke: trace ring dropped events");
        return run.unit;
      }
    }
  }

 private:
  std::uint64_t seed_;
  int pairs_;
};

}  // namespace

UnitResult run_tracked_unit(std::uint64_t seed, FtMode mode, int pairs) {
  return track_run(seed, mode, pairs, 0).unit;
}

// --- web-open-loop ----------------------------------------------------------

namespace {

class WebOpenLoop final : public Workload {
 public:
  WebOpenLoop(std::uint64_t seed, bool small)
      : seed_(seed), duration_us_(small ? 130'000 : 250'000) {}

  /// Boot, build the request engine, publish the documents and start the
  /// generator and workers: a run with an empty arrival schedule.
  double setup() override {
    const Clock::time_point start = Clock::now();
    System sys(machine(seed_, FtMode::kSuperGlue));
    sg::websrv::OpenLoopConfig empty = load(sys);
    empty.duration_us = 0;
    empty.fault_period = 0;
    sg::websrv::run_open_loop(sys, empty);
    return seconds_between(start, Clock::now());
  }

  UnitResult run_unit(bool traced) override {
    for (std::size_t ring = kFirstRing;; ring *= 4) {
      UnitResult unit;
      System sys(machine(seed_, FtMode::kSuperGlue));
      if (traced) start_tracing(sys, ring);
      const sg::websrv::OpenLoopConfig config = load(sys);
      const Clock::time_point start = Clock::now();
      const sg::websrv::OpenLoopResult result = sg::websrv::run_open_loop(sys, config);
      unit.host_s = seconds_between(start, Clock::now());
      if (traced && !finish_traced(sys, unit)) {
        if (ring < kLastRing) continue;
        unit.problems.push_back("web-open-loop: trace ring dropped events");
      }
      unit.ops = result.issued;
      unit.failed = result.issued - std::min(result.issued, result.completed);
      if (result.errors != 0 || result.completed != result.issued) {
        unit.problems.push_back("web-open-loop: " + std::to_string(result.issued - result.completed) +
                                " requests without a checksum-correct 200");
      }
      add_kernel_counts(sys, unit.counts);
      unit.model = result.to_json("superglue");
      unit.values["crashes"] = result.crashes_injected;
      unit.values["cache_hits"] = static_cast<double>(result.cache_hits);
      unit.values["cache_misses"] = static_cast<double>(result.cache_misses);
      unit.values["handle_refreshes"] = static_cast<double>(result.handle_refreshes);
      unit.values["connections_opened"] = static_cast<double>(result.connections_opened);
      unit.values["vlat_p50_us"] = static_cast<double>(result.latency.percentile(50));
      unit.values["vlat_p99_us"] = static_cast<double>(result.latency.percentile(99));
      unit.values["vlat_p999_us"] = static_cast<double>(result.latency.percentile(99.9));
      unit.values["goodput_fault_rps"] = result.goodput_fault_rps;
      return unit;
    }
  }

 private:
  /// Fig 7 frontend, SuperGlue stubs: seeded Poisson arrivals at 20k virtual
  /// req/s, 3 workers, 16 keep-alive connections, and one crash every 120
  /// virtual ms rotating through the six services from a seeded start.
  sg::websrv::OpenLoopConfig load(System& sys) const {
    sg::websrv::OpenLoopConfig config;
    config.rate = 20000.0;
    config.duration_us = duration_us_;
    config.seed = seed_;
    config.workers = 3;
    config.connections = 16;
    config.componentized = true;
    config.fault_period = 120'000;
    const std::vector<std::string>& services = sys.service_names();
    for (std::size_t i = 0; i < services.size(); ++i) {
      config.fault_targets.push_back(services[(seed_ + i) % services.size()]);
    }
    return config;
  }

  std::uint64_t seed_;
  sg::kernel::VirtualTime duration_us_;
};

// --- swifi-campaign ---------------------------------------------------------

/// Parses the kind name and thread id out of one format_normalized line
/// ("+<delta> <kind> comp=<c> thd=<t> ...").
void add_normalized_line(const std::string& line, Counts& counts, std::set<std::string>& threads) {
  std::istringstream words(line);
  std::string delta, kind, word;
  words >> delta >> kind;
  while (words >> word) {
    if (word.rfind("thd=", 0) == 0) threads.insert(word);
  }
  static const std::map<std::string, EventKind> kKinds = [] {
    std::map<std::string, EventKind> by_name;
    for (const EventKind known :
         {EventKind::kInvokeEnter, EventKind::kMicroReboot, EventKind::kBlock, EventKind::kWake,
          EventKind::kDescSigma, EventKind::kWalkBegin, EventKind::kWalkStep,
          EventKind::kWalkAbort, EventKind::kMechanism, EventKind::kFault}) {
      by_name[sg::trace::to_string(known)] = known;
    }
    return by_name;
  }();
  const auto it = kKinds.find(kind);
  if (it != kKinds.end()) add_event(it->second, counts);
}

class SwifiCampaign final : public Workload {
 public:
  SwifiCampaign(std::uint64_t seed, bool small) : seed_(seed), per_cell_(small ? 1 : 40) {}

  /// Every episode first boots a fresh SuperGlue System.
  double setup() override {
    const Clock::time_point start = Clock::now();
    System sys(machine(seed_, FtMode::kSuperGlue));
    return seconds_between(start, Clock::now());
  }

  UnitResult run_unit(bool traced) override {
    UnitResult unit;
    const sg::campaign::Config config = campaign_config();
    sg::swifi::CampaignConfig swifi_config;
    swifi_config.seed = config.master_seed;
    swifi_config.mode = config.mode;
    swifi_config.policy = config.policy;
    const sg::swifi::Campaign swifi(swifi_config);
    sg::swifi::EpisodeOptions options;
    options.workload_iterations = config.workload_iterations;
    options.check_invariants = traced;

    sg::campaign::Result result;
    for (const std::string& service : services()) {
      sg::campaign::CellResult cell;
      cell.service = service;
      const std::string tag = sg::campaign::cell_tag(service, cell.profile);
      options.profile = cell.profile;
      for (std::uint64_t episode = 0; episode < config.injections_per_cell; ++episode) {
        const std::uint64_t seed = sg::swifi::episode_seed(config.master_seed, tag, episode);
        sg::swifi::EpisodeTrace trace;
        sg::swifi::EpisodeResult episode_result;
        const Clock::time_point start = Clock::now();
        {
          Spans::Scope scope(spans(), "episode." + service);
          episode_result = swifi.run_episode_detail(service, seed, options, traced ? &trace : nullptr);
        }
        const double host_s = seconds_between(start, Clock::now());
        unit.host_s += host_s;
        unit.samples["episode_ms." + service].push_back(host_s * 1e3);
        ++unit.ops;
        cell.tally.add(episode_result);
        unit.counts.boots += 1;
        if (traced) {
          if (trace.truncated) unit.problems.push_back("swifi-campaign: trace ring dropped events");
          if (episode_result.invariant_violations != 0) ++unit.failed;
          for (const std::string& violation : trace.violations) unit.problems.push_back(violation);
          std::set<std::string> threads;
          std::istringstream lines(trace.normalized);
          for (std::string line; std::getline(lines, line);) add_normalized_line(line, unit.counts, threads);
          unit.counts.threads += static_cast<double>(threads.size());
        }
      }
      const sg::campaign::Tally& t = cell.tally;
      if (t.recovered + t.degraded + t.undetected + t.segfault + t.propagated + t.hang +
              t.quarantined + t.other != t.injected) {
        unit.problems.push_back("swifi-campaign: buckets of " + service + " do not sum to injected");
      }
      result.total.merge(cell.tally);
      result.cells.push_back(std::move(cell));
    }
    // The kernel of each episode is private to run_episode_detail, so switch
    // counts are estimated from the trace: every block hands the CPU on, and
    // every thread is dispatched once to start.
    unit.counts.dispatches = unit.counts.blocks + unit.counts.threads;

    const sg::campaign::Tally& total = result.total;
    const double activated = static_cast<double>(total.activated());
    unit.values["activation_ratio"] = activated / static_cast<double>(std::max<std::uint64_t>(1, total.injected));
    unit.values["unrecovered_ratio"] =
        activated > 0 ? (activated - static_cast<double>(total.recovered)) / activated : 0.0;
    unit.values["virtual_ms_per_episode"] =
        static_cast<double>(total.virtual_time_total) / 1e3 / static_cast<double>(total.injected);
    unit.model = sg::campaign::to_json(config, result);
    return unit;
  }

  /// The same campaign through campaign::run must give the same tallies.
  std::vector<std::string> cross_check(const UnitResult& unit) override {
    const sg::campaign::Config config = campaign_config();
    if (sg::campaign::to_json(config, sg::campaign::run(config)) == unit.model) return {};
    return {"swifi-campaign: tally differs from campaign::run for the same config and seed"};
  }

 private:
  /// Table II with SuperGlue: register flips over all seven cells, 80
  /// workload iterations per episode, one worker.
  sg::campaign::Config campaign_config() const {
    sg::campaign::Config config;
    config.master_seed = seed_;
    config.injections_per_cell = per_cell_;
    config.workers = 1;
    config.workload_iterations = 80;
    config.mode = FtMode::kSuperGlue;
    config.services = services();
    config.profiles = {sg::swifi::InjectionProfile::kRegisterFlip};
    return config;
  }

  static const std::vector<std::string>& services() {
    static const std::vector<std::string> kServices = {"sched", "mman", "ramfs", "lock",
                                                       "evt",   "tmr",  "storage"};
    return kServices;
  }

  std::uint64_t seed_;
  std::uint64_t per_cell_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"web-open-loop", "swifi-campaign",
                                                  "tracked-invoke"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, bool small) {
  if (name == "web-open-loop") return std::make_unique<WebOpenLoop>(seed, small);
  if (name == "swifi-campaign") return std::make_unique<SwifiCampaign>(seed, small);
  if (name == "tracked-invoke") return std::make_unique<TrackedInvoke>(seed, small);
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace sgbench
