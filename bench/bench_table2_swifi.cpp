// Table II: the SWIFI fault-injection campaign.
//
// Injects SG_INJECTIONS (default 500, as in the paper) single-bit register
// flips per system component while that component's §V-B workload runs, and
// classifies every injection: recovered / segfault / propagated / other /
// undetected. Prints our Table II next to the paper's reference numbers.

// With --mode=crash-loop | burst | fault-in-recovery | independent-burst it
// instead runs the corresponding supervised stress campaign (correlated
// faults against one machine) and prints the recovery supervisor's
// per-escalation-level counters; see docs/SUPERVISION.md. The
// independent-burst mode runs at cores>=2 (SG_CORES), fires simultaneous
// faults into disjoint-closure components, and with --json writes the
// recovery-overlap and partial-availability stats to
// BENCH_table2_domains.json.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "components/trace_check.hpp"
#include "swifi/stress.hpp"
#include "swifi/swifi.hpp"
#include "swifi/workloads.hpp"
#include "trace/invariants.hpp"
#include "util/stats.hpp"

/// Writes Chrome trace_event JSON captured by a traced run to `path` (load
/// via chrome://tracing or ui.perfetto.dev); see docs/TRACING.md.
static bool write_trace_file(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    std::fprintf(stderr, "--trace: cannot open %s\n", path.c_str());
    return false;
  }
  out << json;
  std::printf("trace: Chrome trace written to %s\n", path.c_str());
  return true;
}

static int run_stress_mode(sg::swifi::StressMode mode, const std::string& trace_file,
                           bool emit_json) {
  const bool domains = mode == sg::swifi::StressMode::kIndependentBurst;
  if (domains) {
    sg::bench::banner("Independent-burst campaign (concurrent recovery domains)",
                      "simultaneous disjoint-closure faults at cores>=2");
  } else {
    sg::bench::banner("Supervised stress campaign (recovery supervisor)",
                      "crash-loop / burst / fault-in-recovery hardening");
  }
  sg::swifi::StressConfig config;
  config.seed = static_cast<std::uint64_t>(sg::bench::env_int("SG_SEED", 2016));
  config.trace = !trace_file.empty();
  config.cores = std::max(2, sg::bench::env_int("SG_CORES", 4));
  config.episodes = sg::bench::env_int("SG_EPISODES", 6);
  const sg::swifi::StressReport report = sg::swifi::run_stress(mode, config);
  std::printf("%s", sg::swifi::format_stress_report(mode, report).c_str());
  if (!trace_file.empty()) {
    write_trace_file(trace_file, report.trace_chrome_json);
    for (const auto& violation : report.trace_violations) {
      std::printf("trace: INVARIANT VIOLATION %s\n", violation.c_str());
    }
    if (report.trace_truncated) {
      std::printf("trace: ring overflow truncated the window (invariant checks lenient)\n");
    }
  }
  if (domains && emit_json) {
    const double overlap_ratio =
        report.episodes > 0 ? static_cast<double>(report.overlap_episodes) / report.episodes : 0.0;
    std::string body = "{\n  \"bench\": \"table2_domains\",\n";
    body += "  \"mode\": " + sg::bench::json_str(sg::swifi::to_string(mode)) + ",\n";
    body += "  \"cores\": " + std::to_string(config.cores) + ",\n";
    body += "  \"seed\": " + std::to_string(config.seed) + ",\n";
    body += "  " + sg::bench::host_meta_json(config.cores) + ",\n";
    body += "  \"overlap\": {\"episodes\": " + std::to_string(report.episodes) +
            ", \"overlap_episodes\": " + std::to_string(report.overlap_episodes) +
            ", \"overlap_ratio\": " + sg::bench::json_num(overlap_ratio) +
            ", \"max_concurrent_recoveries\": " + std::to_string(report.max_concurrent_recoveries) +
            ", \"trace_max_concurrent_domains\": " +
            std::to_string(report.trace_max_concurrent_domains) + "},\n";
    body += "  \"availability\": {\"bystander_ops\": " + std::to_string(report.bystander_ops) +
            ", \"bystander_ops_during_recovery\": " +
            std::to_string(report.bystander_ops_during_recovery) +
            ", \"untouched_available\": " +
            ((report.bystander_ops_during_recovery > 0 && report.violations == 0) ? "true"
                                                                                  : "false") +
            "},\n";
    body += "  \"faults\": " + std::to_string(report.stats.faults) +
            ",\n  \"micro_reboots\": " + std::to_string(report.total_reboots) +
            ",\n  \"violations\": " + std::to_string(report.violations) +
            ",\n  \"completed\": " + (report.completed ? "true" : "false") + "\n}";
    sg::bench::write_json_file("BENCH_table2_domains.json", body);
  }
  const bool ok = report.completed && report.violations == 0 && report.escalation_in_order &&
                  report.trace_violations.empty() && (!domains || report.overlap_episodes >= 1);
  return ok ? 0 : 1;
}

/// `--json` artifact: the full per-component outcome distribution, so CI can
/// diff campaign results (including the Degraded column) across revisions.
static std::string table2_json(const std::vector<sg::swifi::CampaignRow>& rows, int injections,
                               std::uint64_t seed) {
  std::string json_rows;
  for (const auto& row : rows) {
    if (!json_rows.empty()) json_rows += ",\n";
    json_rows += "    {\"component\": " + sg::bench::json_str(row.component) +
                 ", \"injected\": " + std::to_string(row.injected) +
                 ", \"recovered\": " + std::to_string(row.recovered) +
                 ", \"degraded\": " + std::to_string(row.degraded) +
                 ", \"segfault\": " + std::to_string(row.segfault) +
                 ", \"propagated\": " + std::to_string(row.propagated) +
                 ", \"other\": " + std::to_string(row.other) +
                 ", \"undetected\": " + std::to_string(row.undetected) +
                 ", \"activation_ratio\": " + sg::bench::json_num(row.activation_ratio()) +
                 ", \"success_rate\": " + sg::bench::json_num(row.success_rate()) + "}";
  }
  return "{\n  \"bench\": \"table2_swifi\",\n  \"injections\": " + std::to_string(injections) +
         ",\n  \"seed\": " + std::to_string(seed) + ",\n  \"components\": [\n" + json_rows +
         "\n  ]\n}";
}

/// --multicore[=N]: the in-process multi-core mode (docs/KERNEL.md).
///
/// Two measurements land in BENCH_table2_multicore.json:
///  1. Sharded episode throughput: the same seeded fail-stop episodes run
///     once on 1 worker and once on N workers (whole Systems per worker,
///     cores=1 inside each — the determinism-preserving parallelism), giving
///     the campaign speedup.
///  2. Availability under concurrent recovery: one System with cores=N runs
///     three workloads in independent components while an injector crash-
///     loops a fourth; invocations keep completing on other cores during
///     recovery, and the trace-invariant checker must stay clean.
static int run_multicore_mode(int cores, bool emit_json) {
  sg::bench::banner("In-process multi-core mode: sharded episode throughput + "
                    "availability under concurrent recovery",
                    "the multi-core kernel refactor; not in the paper");
  const std::uint64_t seed = static_cast<std::uint64_t>(sg::bench::env_int("SG_SEED", 2016));
  const int episodes = sg::bench::env_int("SG_MC_EPISODES", 240);
  const std::vector<std::string> services = {"sched", "mman", "ramfs", "lock", "evt", "tmr"};

  sg::swifi::CampaignConfig config;
  config.seed = seed;
  const sg::swifi::Campaign campaign(config);

  sg::swifi::EpisodeOptions opts;
  opts.profile = sg::swifi::InjectionProfile::kFailStop;
  opts.workload_iterations = 40;
  opts.check_invariants = true;

  // --- 1. sharded episode throughput: 1 worker vs N workers ---------------
  std::atomic<long long> violations{0};
  std::atomic<long long> recovered{0};
  auto run_sharded = [&](int workers) -> double {
    std::atomic<int> next{0};
    auto pull = [&] {
      for (;;) {
        const int idx = next.fetch_add(1, std::memory_order_relaxed);
        if (idx >= episodes) return;
        const std::string& service = services[static_cast<std::size_t>(idx) % services.size()];
        const std::uint64_t ep_seed = sg::swifi::episode_seed(
            seed, "multicore/" + service, static_cast<std::uint64_t>(idx));
        const auto result = campaign.run_episode_detail(service, ep_seed, opts);
        violations.fetch_add(result.invariant_violations, std::memory_order_relaxed);
        if (result.outcome == sg::swifi::Outcome::kRecovered) {
          recovered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    return sg::bench::time_us([&] {
      std::vector<std::thread> pool;
      for (int w = 1; w < workers; ++w) pool.emplace_back(pull);
      pull();
      for (auto& t : pool) t.join();
    });
  };

  const double wall_1 = run_sharded(1);
  const long long recovered_1 = recovered.exchange(0);
  const double wall_n = run_sharded(cores);
  const long long recovered_n = recovered.exchange(0);
  const double eps_1 = episodes / (wall_1 / 1e6);
  const double eps_n = episodes / (wall_n / 1e6);
  const double speedup = wall_n > 0 ? wall_1 / wall_n : 0.0;
  std::printf("episode throughput: %d episodes, %.1f eps/s on 1 worker, %.1f eps/s on %d "
              "workers (speedup %.2fx)\n",
              episodes, eps_1, eps_n, cores, speedup);
  std::printf("recovered: %lld (1 worker) vs %lld (%d workers) -- must match; "
              "invariant violations: %lld\n",
              recovered_1, recovered_n, cores, static_cast<long long>(violations.load()));

  // --- 2. availability under concurrent recovery (one System, cores=N) ----
  sg::components::SystemConfig sys_config;
  sys_config.seed = seed;
  sys_config.cores = cores;
  sys_config.trace = true;
  sg::components::System sys(sys_config);
  auto& kern = sys.kernel();

  // Three workloads in independent components keep invoking while the
  // injector crash-loops ramfs; their progress during recovery is the
  // availability signal.
  sg::swifi::WorkloadState lock_state, evt_state, tmr_state, ramfs_state;
  lock_state.target_iterations = 120;
  evt_state.target_iterations = 120;
  tmr_state.target_iterations = 120;
  // The crash-loop victim runs longest so every shot lands mid-workload.
  ramfs_state.target_iterations = 360;

  // Created first (and at top priority) so the injector owns a core from
  // virtual time 0; it then sleeps, so the cadence below is run-relative.
  const sg::kernel::CompId ramfs_id = sys.ramfs().id();
  kern.thd_create("mc-injector", 2, [&] {
    for (int shot = 0; shot < 8; ++shot) {
      kern.block_current_until(kern.clock().now() + 30 + 30 * shot);
      if (ramfs_state.done()) break;
      kern.inject_crash(ramfs_id);
    }
  });

  sg::swifi::install_workload(sys, "lock", lock_state);
  sg::swifi::install_workload(sys, "evt", evt_state);
  sg::swifi::install_workload(sys, "tmr", tmr_state);
  sg::swifi::install_workload(sys, "ramfs", ramfs_state);

  bool crashed = false;
  try {
    kern.run();
  } catch (const sg::kernel::SystemCrash& crash) {
    crashed = true;
    std::printf("concurrent-recovery run CRASHED: %s\n", crash.what());
  }

  int concurrent_violations = 0;
  if (!crashed) {
    sg::trace::InvariantChecker checker(sg::components::checker_hooks(sys));
    concurrent_violations =
        static_cast<int>(checker.check(kern.tracer().snapshot()).size());
  }
  const int iterations = lock_state.iterations + evt_state.iterations + tmr_state.iterations +
                         ramfs_state.iterations;
  const bool correct = lock_state.correct && evt_state.correct && tmr_state.correct &&
                       ramfs_state.correct && !crashed;
  for (const auto* st : {&lock_state, &evt_state, &tmr_state, &ramfs_state}) {
    if (!st->correct) {
      std::printf("concurrent-recovery workload failed: %s\n", st->fail_reason.load());
    }
  }
  std::printf("concurrent recovery: %d workload iterations beside %d ramfs reboots, "
              "max %d threads truly parallel, %d invariant violations, %s\n",
              iterations, kern.total_reboots(), kern.max_concurrent_running(),
              concurrent_violations, correct ? "workloads correct" : "WORKLOAD FAILURE");

  if (emit_json) {
    std::string body = "{\n  \"bench\": \"table2_multicore\",\n";
    body += "  \"cores\": " + std::to_string(cores) + ",\n";
    body += "  \"episodes\": " + std::to_string(episodes) + ",\n";
    body += "  \"seed\": " + std::to_string(seed) + ",\n";
    body += "  " + sg::bench::host_meta_json(cores) + ",\n";
    body += "  \"throughput\": {\"eps_per_sec_1\": " + sg::bench::json_num(eps_1) +
            ", \"eps_per_sec_n\": " + sg::bench::json_num(eps_n) +
            ", \"speedup\": " + sg::bench::json_num(speedup) +
            ", \"recovered_1\": " + std::to_string(recovered_1) +
            ", \"recovered_n\": " + std::to_string(recovered_n) +
            ", \"invariant_violations\": " + std::to_string(violations.load()) + "},\n";
    body += "  \"concurrent_recovery\": {\"iterations\": " + std::to_string(iterations) +
            ", \"reboots\": " + std::to_string(kern.total_reboots()) +
            ", \"max_concurrent\": " + std::to_string(kern.max_concurrent_running()) +
            ", \"invariant_violations\": " + std::to_string(concurrent_violations) +
            ", \"correct\": " + (correct ? std::string("true") : std::string("false")) + "}\n";
    body += "}";
    sg::bench::write_json_file("BENCH_table2_multicore.json", body);
  }

  const bool ok = correct && concurrent_violations == 0 && violations.load() == 0 &&
                  recovered_1 == recovered_n;
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  std::string trace_file;
  bool stress = false;
  // Worker-thread sharding (-jN / SG_WORKERS). Per-episode seeds are pure
  // functions of (SG_SEED, episode index), never of the shard layout, so any
  // worker count reproduces the single-threaded table exactly.
  int workers = sg::bench::env_int("SG_WORKERS", 1);
  bool multicore = false;
  int mc_cores = std::max(2, sg::bench::env_int("SG_CORES", 4));
  sg::swifi::StressMode mode{};
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strncmp(argv[arg], "--trace=", 8) == 0) {
      trace_file = argv[arg] + 8;
    } else if (std::strcmp(argv[arg], "--multicore") == 0) {
      multicore = true;
    } else if (std::strncmp(argv[arg], "--multicore=", 12) == 0) {
      multicore = true;
      mc_cores = std::max(2, std::atoi(argv[arg] + 12));
    } else if (std::strncmp(argv[arg], "-j", 2) == 0 && argv[arg][2] != '\0') {
      workers = std::atoi(argv[arg] + 2);
    } else if (std::strncmp(argv[arg], "--workers=", 10) == 0) {
      workers = std::atoi(argv[arg] + 10);
    } else if (std::strncmp(argv[arg], "--mode=", 7) == 0) {
      const std::string text = argv[arg] + 7;
      if (!sg::swifi::parse_stress_mode(text, mode)) {
        std::fprintf(stderr,
                     "unknown --mode=%s (expected crash-loop, burst, fault-in-recovery or "
                     "independent-burst)\n",
                     text.c_str());
        return 2;
      }
      stress = true;
    }
  }
  if (multicore) return run_multicore_mode(mc_cores, sg::bench::has_flag(argc, argv, "--json"));
  if (stress) return run_stress_mode(mode, trace_file, sg::bench::has_flag(argc, argv, "--json"));

  sg::bench::banner("SWIFI fault-injection campaign over the six system components",
                    "Table II of the paper");
  sg::swifi::CampaignConfig config;
  config.injections = sg::bench::env_int("SG_INJECTIONS", 500);
  config.seed = static_cast<std::uint64_t>(sg::bench::env_int("SG_SEED", 2016));
  std::printf("injections per component: %d (override with SG_INJECTIONS), workers: %d\n"
              "fault model: single-bit flips, mask 0xFFFFFFFF, over EAX..EDI+ESP+EBP,\n"
              "landing while a thread executes inside the target component (Sec V-A).\n\n",
              config.injections, workers);

  sg::swifi::Campaign campaign(config);
  const auto rows = campaign.run_all(workers);
  std::printf("measured (COMPOSITE + SuperGlue):\n%s\n",
              sg::swifi::format_table2(rows).c_str());
  if (sg::bench::has_flag(argc, argv, "--json")) {
    sg::bench::write_json_file(
        "BENCH_table2.json",
        sg::bench::with_host_meta(table2_json(rows, config.injections, config.seed), workers));
  }

  if (!trace_file.empty()) {
    // The full campaign boots thousands of fresh systems; exporting one
    // representative traced episode keeps the file loadable. Episode 0
    // against the lock service recovers a single injected flip end-to-end.
    auto traced_config = config;
    traced_config.trace = true;
    sg::swifi::EpisodeTrace episode;
    sg::swifi::Campaign(traced_config).run_episode("lock", 0, &episode);
    write_trace_file(trace_file, episode.chrome_json);
    for (const auto& violation : episode.violations) {
      std::printf("trace: INVARIANT VIOLATION %s\n", violation.c_str());
    }
  }

  if (sg::bench::env_int("SG_COMPARE_C3", 0) != 0) {
    // The same campaign over the hand-written C3 stubs: recovery rates must
    // come out equivalent (SuperGlue replaces the code, not the semantics).
    auto c3_config = config;
    c3_config.mode = sg::components::FtMode::kC3;
    sg::swifi::Campaign c3_campaign(c3_config);
    std::printf("measured (COMPOSITE + C3, hand-written stubs; SG_COMPARE_C3=1):\n%s\n",
                sg::swifi::format_table2(c3_campaign.run_all()).c_str());
  }

  std::printf("paper's Table II for reference (500 injections each):\n");
  sg::TextTable paper;
  paper.add_row({"Component", "Recovered", "segfault", "propagated", "other", "Undetected",
                 "Activation", "Success"});
  paper.add_row({"Sched", "436", "54", "0", "2", "9", "98.36%", "88.58%"});
  paper.add_row({"MM", "431", "35", "1", "4", "30", "94.26%", "91.48%"});
  paper.add_row({"FS", "455", "18", "0", "0", "29", "94.7%", "96.14%"});
  paper.add_row({"Lock", "433", "33", "2", "0", "31", "93.82%", "92.35%"});
  paper.add_row({"Event", "450", "16", "2", "0", "33", "93.83%", "96%"});
  paper.add_row({"Timer", "460", "26", "0", "0", "18", "97.23%", "94.62%"});
  std::printf("%s\n", paper.render().c_str());
  return 0;
}
