// Multi-core kernel semantics: per-core dispatch, component occupancy,
// cross-core recovery, clock consensus, and the cores=1 equivalence the
// explorer/campaign determinism story depends on. See docs/KERNEL.md.

#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "components/system.hpp"
#include "kernel/booter.hpp"
#include "kernel/fault.hpp"
#include "kernel/kernel.hpp"
#include "swifi/swifi.hpp"
#include "swifi/workloads.hpp"
#include "tests/test_util.hpp"

namespace sg {
namespace {

using kernel::Args;
using kernel::CallCtx;
using kernel::Value;

// A component whose handler holds the core for a short host-side burn with
// no scheduling point inside, so component occupancy is genuinely exercised:
// overlap is only possible if two sim threads RUN inside the handler at once.
class BurnComponent final : public kernel::Component {
 public:
  explicit BurnComponent(kernel::Kernel& kernel, const std::string& name)
      : Component(kernel, name) {
    export_fn("burn", [this](CallCtx&, const Args&) -> Value {
      const int now_inside = inside_.fetch_add(1, std::memory_order_acq_rel) + 1;
      int seen = max_inside_.load(std::memory_order_relaxed);
      while (now_inside > seen &&
             !max_inside_.compare_exchange_weak(seen, now_inside, std::memory_order_relaxed)) {
      }
      // Host-side busy work (no kernel call => occupancy held throughout).
      volatile unsigned sink = 0;
      for (unsigned i = 0; i < 2000; ++i) sink = sink + i;
      inside_.fetch_sub(1, std::memory_order_acq_rel);
      return kernel::kOk;
    });
  }
  void reset_state() override {}
  int max_inside() const { return max_inside_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> inside_{0};
  std::atomic<int> max_inside_{0};
};

// --- configuration ---------------------------------------------------------

// Saves SG_CORES on construction and restores it (or its absence) on
// destruction, so the config tests neither read nor leak the ambient value
// (the four-core CI step runs this binary with SG_CORES=4).
class ScopedCoresEnv {
 public:
  ScopedCoresEnv() {
    if (const char* v = std::getenv("SG_CORES")) saved_ = v;
  }
  ~ScopedCoresEnv() {
    if (saved_) {
      ::setenv("SG_CORES", saved_->c_str(), 1);
    } else {
      ::unsetenv("SG_CORES");
    }
  }
  ScopedCoresEnv(const ScopedCoresEnv&) = delete;
  ScopedCoresEnv& operator=(const ScopedCoresEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

TEST(MultiCoreConfigTest, DefaultIsSingleRunner) {
  const ScopedCoresEnv env;
  ::unsetenv("SG_CORES");
  kernel::Kernel kern;
  EXPECT_EQ(kern.cores(), 1);
  components::SystemConfig config;
  EXPECT_EQ(config.cores, 1) << "SG_CORES unset must preserve the single-runner kernel";
}

TEST(MultiCoreConfigTest, EnvCoresKnobParsesAndClamps) {
  const ScopedCoresEnv env;
  ::setenv("SG_CORES", "4", 1);
  EXPECT_EQ(components::SystemConfig::env_cores(), 4);
  ::setenv("SG_CORES", "0", 1);
  EXPECT_EQ(components::SystemConfig::env_cores(), 1);
  ::setenv("SG_CORES", "9999", 1);
  EXPECT_EQ(components::SystemConfig::env_cores(), 64);
  ::setenv("SG_CORES", "garbage", 1);
  EXPECT_EQ(components::SystemConfig::env_cores(), 1);
  ::unsetenv("SG_CORES");
  EXPECT_EQ(components::SystemConfig::env_cores(), 1);
}

TEST(MultiCoreConfigTest, SingleCoreNeverRunsTwoThreadsAtOnce) {
  kernel::Kernel kern;  // cores defaults to 1.
  for (int t = 0; t < 4; ++t) {
    kern.thd_create("spin" + std::to_string(t), 10, [&] {
      for (int i = 0; i < 50; ++i) kern.yield();
    });
  }
  kern.run();
  EXPECT_EQ(kern.max_concurrent_running(), 1);
}

// --- parallelism -----------------------------------------------------------

TEST(MultiCoreParallelismTest, IndependentComponentsRunConcurrently) {
  kernel::Kernel kern;
  kern.set_cores(4);
  std::vector<std::unique_ptr<BurnComponent>> comps;
  for (int c = 0; c < 4; ++c) {
    comps.push_back(std::make_unique<BurnComponent>(kern, "burn" + std::to_string(c)));
  }
  for (int t = 0; t < 4; ++t) {
    kern.thd_create("worker" + std::to_string(t), 10, [&, t] {
      for (int i = 0; i < 200; ++i) {
        kern.invoke(kernel::kNoComp, comps[static_cast<std::size_t>(t)]->id(), "burn", {});
      }
    });
  }
  kern.run();
  // All four sim threads are dispatchable to distinct cores; the high-water
  // mark proves real overlap (host-thread timesharing still counts: RUNNING
  // state is the kernel's own dispatch bookkeeping, not host parallelism).
  EXPECT_GE(kern.max_concurrent_running(), 2);
  EXPECT_LE(kern.max_concurrent_running(), 4);
  int dispatches = 0;
  for (const auto& core : kern.core_stats()) dispatches += core.dispatches;
  EXPECT_GT(dispatches, 0);
}

TEST(MultiCoreParallelismTest, SameComponentInvocationsSerialize) {
  kernel::Kernel kern;
  kern.set_cores(4);
  BurnComponent shared(kern, "shared");
  for (int t = 0; t < 4; ++t) {
    kern.thd_create("worker" + std::to_string(t), 10, [&] {
      for (int i = 0; i < 100; ++i) kern.invoke(kernel::kNoComp, shared.id(), "burn", {});
    });
  }
  kern.run();
  EXPECT_EQ(shared.max_inside(), 1)
      << "component occupancy must admit at most one running thread";
}

// --- the PR-5 wakeup-semantics fixes must hold at cores>1 ------------------

void latched_wakeup_scenario(int cores) {
  kernel::Kernel kern;
  kern.set_cores(cores);
  bool consumed = false;
  const auto sleeper = kern.thd_create("sleeper", 10, [&] {
    consumed = kern.block_current();  // Wake may land before or after: both consume.
  });
  kern.thd_create("waker", 5, [&] { kern.wakeup(sleeper); });
  kern.run();
  EXPECT_TRUE(consumed) << "cores=" << cores;
}

void recovery_wake_never_latched_scenario(int cores) {
  kernel::Kernel kern;
  kern.set_cores(cores);
  bool blocked_for_real = false;
  const auto sleeper = kern.thd_create("sleeper", 10, [&] {
    const auto before = kern.now();
    kern.block_current_until(kern.now() + 500);
    blocked_for_real = (kern.now() - before) >= 500;
  });
  kern.thd_create("recovery-waker", 5, [&] {
    kern.wakeup(sleeper, /*recovery_wake=*/true);  // Spurious by design.
  });
  kern.run();
  EXPECT_TRUE(blocked_for_real) << "cores=" << cores;
}

void recovery_wake_reblocks_scenario(int cores) {
  kernel::Kernel kern;
  kern.set_cores(cores);
  kernel::VirtualTime slept = 0;
  bool consumed = false;
  const auto sleeper = kern.thd_create("sleeper", 10, [&] {
    const auto before = kern.now();
    consumed = kern.block_current_until(before + 1000);
    slept = kern.now() - before;
  });
  kern.thd_create("waker", 11, [&] {
    kern.block_current_until(kern.now() + 100);
    kern.wakeup(sleeper, /*recovery_wake=*/true);
  });
  kern.run();
  EXPECT_GE(slept, 1000u) << "cores=" << cores << ": recovery wake ended the timed block early";
  EXPECT_FALSE(consumed) << "cores=" << cores;
}

void banked_wakeup_survives_unwound_block_scenario(int cores) {
  kernel::Kernel kern;
  kern.set_cores(cores);
  kernel::Booter booter(kern);

  class Blocker final : public kernel::Component {
   public:
    explicit Blocker(kernel::Kernel& kernel) : Component(kernel, "blocker") {
      export_fn("nap", [this](CallCtx&, const Args&) -> Value {
        const bool consumed = kernel_.block_current();
        if (explode_after_wake_) {
          explode_after_wake_ = false;
          if (consumed) kernel_.bank_wakeup(kernel_.current_thread());
          throw kernel::ComponentFault(id(), kernel::FaultKind::kInjected, "post-block fault");
        }
        return kernel::kOk;
      });
      export_fn("arm", [this](CallCtx&, const Args&) -> Value {
        explode_after_wake_ = true;
        return kernel::kOk;
      });
    }
    void reset_state() override { explode_after_wake_ = false; }

   private:
    bool explode_after_wake_ = false;
  } blocker(kern);
  booter.capture_image(blocker);

  bool completed = false;
  const auto napper = kern.thd_create("napper", 10, [&] {
    kern.invoke(kernel::kNoComp, blocker.id(), "arm", {});
    for (int redo = 0; redo < 4; ++redo) {
      const auto res = kern.invoke(kernel::kNoComp, blocker.id(), "nap", {});
      if (!res.fault) {
        completed = true;
        return;
      }
    }
  });
  kern.thd_create("waker", 11, [&] {
    kern.wakeup(napper);  // The one-and-only genuine wakeup.
  });
  kern.run();
  EXPECT_TRUE(completed) << "cores=" << cores << ": the banked wakeup was lost";
}

TEST(MultiCoreWakeupTest, WakeupBeforeBlockIsLatchedAtTwoAndFourCores) {
  latched_wakeup_scenario(2);
  latched_wakeup_scenario(4);
}

TEST(MultiCoreWakeupTest, RecoveryWakeIsNeverLatchedAtTwoAndFourCores) {
  recovery_wake_never_latched_scenario(2);
  recovery_wake_never_latched_scenario(4);
}

TEST(MultiCoreWakeupTest, RecoveryWakeOfTimedBlockedThreadReblocksAtTwoAndFourCores) {
  recovery_wake_reblocks_scenario(2);
  recovery_wake_reblocks_scenario(4);
}

TEST(MultiCoreWakeupTest, GenuineWakeupSurvivesUnwoundBlockAtTwoAndFourCores) {
  banked_wakeup_survives_unwound_block_scenario(2);
  banked_wakeup_survives_unwound_block_scenario(4);
}

// --- virtual clock consensus ----------------------------------------------

TEST(MultiCoreClockTest, IdleJumpIsWholeMachineConsensus) {
  kernel::Kernel kern;
  kern.set_cores(4);
  // Four sleepers with staggered deadlines: the jump to each next deadline
  // may only happen once every core is idle, so no sleeper wakes early.
  std::vector<kernel::VirtualTime> woke_at(4, 0);
  for (int t = 0; t < 4; ++t) {
    kern.thd_create("sleeper" + std::to_string(t), 10, [&, t] {
      kern.block_current_until(kern.now() + 100 * (t + 1));
      woke_at[static_cast<std::size_t>(t)] = kern.now();
    });
  }
  kern.run();
  for (int t = 0; t < 4; ++t) {
    EXPECT_GE(woke_at[static_cast<std::size_t>(t)], 100u * static_cast<unsigned>(t + 1))
        << "sleeper " << t << " woke before its deadline";
  }
  EXPECT_GT(kern.clock().jumps(), 0u);
}

TEST(MultiCoreClockTest, DeadlockIsStillDetectedAtFourCores) {
  kernel::Kernel kern;
  kern.set_cores(4);
  for (int t = 0; t < 3; ++t) {
    kern.thd_create("busy" + std::to_string(t), 10, [&] {
      for (int i = 0; i < 20; ++i) kern.yield();
    });
  }
  kern.thd_create("stuck", 11, [&] { kern.block_current(); });  // Nobody wakes it.
  EXPECT_THROW(kern.run(), kernel::SystemCrash);
}

// --- cross-core recovery ---------------------------------------------------

// Regression for the occupancy leak behind the multi-core bench deadlock: a
// thread with no home component (raw kernel thread) whose invoke loses the
// entry-epoch race against a concurrent reboot must hand the server's
// occupancy back. Before the fix the undo keyed on `handed_off_from !=
// kNoComp` -- exactly kNoComp for home-less threads -- so every lost race
// leaked one occupancy depth and the next reboot's quiesce hung the machine.
TEST(MultiCoreRecoveryTest, CrashLoopAgainstHomelessCallersDoesNotLeakOccupancy) {
  kernel::Kernel kern;
  kern.set_cores(2);
  kernel::Booter booter(kern);
  BurnComponent victim(kern, "victim");
  booter.capture_image(victim);

  std::atomic<int> calls{0};
  kern.thd_create("caller", 10, [&] {
    for (int i = 0; i < 300; ++i) {
      kern.invoke(kernel::kNoComp, victim.id(), "burn", {});
      calls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  kern.thd_create("crasher", 5, [&] {
    // At least one shot always lands (a reboot of an idle component is
    // harmless), then keep shooting while calls are in flight so some crash
    // overlaps an invoke entry regardless of host-scheduling skew.
    int shots = 0;
    do {
      kern.block_current_until(kern.now() + 20);
      kern.inject_crash(victim.id());
    } while (++shots < 50 && calls.load(std::memory_order_relaxed) < 300);
  });
  kern.run();  // Before the fix this deadlocked (terminal SystemCrash).
  EXPECT_EQ(calls.load(), 300);
  EXPECT_GE(kern.total_reboots(), 1);
}

// Recovery initiated from one core wakes a waiter parked on another core's
// run queue: a System-level T0 walk with the event-manager workload, where
// the injector and the blocked waiter are necessarily different threads.
TEST(MultiCoreRecoveryTest, RecoveryWakeCrossesCores) {
  components::SystemConfig config;
  config.cores = 4;
  components::System sys(config);
  test::TraceCheck trace(sys, "multicore_t0_cross_core");
  auto& kern = sys.kernel();

  swifi::WorkloadState evt_state;
  evt_state.target_iterations = 60;
  swifi::install_workload(sys, "evt", evt_state);

  const kernel::CompId evt_id = sys.service_component("evt").id();
  kern.thd_create("crasher", 2, [&] {
    for (int shot = 0; shot < 4; ++shot) {
      kern.block_current_until(kern.now() + 25 + 25 * shot);
      if (evt_state.done()) return;
      kern.inject_crash(evt_id);  // T0 must re-wake the waiter, wherever it runs.
    }
  });
  kern.run();
  EXPECT_TRUE(evt_state.correct) << evt_state.fail_reason.load();
  // Trigger delivery is at-least-once across faults (a crash between the
  // G1 store and the client-observed return redoes the trigger), so each of
  // the 4 shots may duplicate at most one in-flight trigger. A count below
  // target means a wake was lost -- the defect this test exists to catch.
  EXPECT_GE(evt_state.iterations, 60);
  EXPECT_LE(evt_state.iterations, 64);
}

TEST(MultiCoreRecoveryTest, QuarantineFromAnotherCoreUnblocksWaiters) {
  kernel::Kernel kern;
  kern.set_cores(2);
  kernel::Booter booter(kern);

  class Trap final : public kernel::Component {
   public:
    explicit Trap(kernel::Kernel& kernel) : Component(kernel, "trap") {
      export_fn("wait_forever", [this](CallCtx&, const Args&) -> Value {
        kernel_.block_current();  // Only a recovery action can end this.
        return kernel::kOk;
      });
    }
    void reset_state() override {}
  } trap(kern);
  booter.capture_image(trap);

  bool unblocked = false;
  kern.thd_create("victim", 10, [&] {
    const auto res = kern.invoke(kernel::kNoComp, trap.id(), "wait_forever", {});
    unblocked = res.fault;  // Unwound by the quarantine's stale-epoch wake.
  });
  kern.thd_create("health-monitor", 5, [&] {
    kern.block_current_until(kern.now() + 50);
    kern.quarantine(trap.id());
  });
  kern.run();
  EXPECT_TRUE(unblocked);
  EXPECT_TRUE(kern.is_quarantined(trap.id()));
}

// --- root-context waiters: woken by the events their predicates read -------

// A component whose handler holds its occupancy (no kernel call inside) until
// the test lets go.
class GateComponent final : public kernel::Component {
 public:
  explicit GateComponent(kernel::Kernel& kernel) : Component(kernel, "gate") {
    export_fn("hold", [this](CallCtx&, const Args&) -> Value {
      inside_ = true;
      while (!open_) std::this_thread::yield();
      return kernel::kOk;
    });
  }
  void reset_state() override {}
  std::atomic<bool> inside_{false};
  std::atomic<bool> open_{false};
};

// A root-context inject_crash at cores=2 whose reboot seize must wait for a
// running occupant to leave: the occupant's final occupancy release has to
// wake the root waiter (the occupant does not exit until the reboot is done).
TEST(MultiCoreRootWaitTest, RootRebootSeizeWaitsForRunningOccupant) {
  kernel::Kernel kern;
  kern.set_cores(2);
  GateComponent gate(kern);
  std::atomic<bool> rebooted{false};
  kern.thd_create("occupant", 10, [&] {
    kern.invoke(kernel::kNoComp, gate.id(), "hold", {});
    while (!rebooted) kern.yield();
  });
  std::thread root([&] {
    while (!gate.inside_) std::this_thread::yield();
    std::thread injector([&] {
      kern.inject_crash(gate.id());
      rebooted = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(rebooted) << "the seize did not wait for the running occupant";
    gate.open_ = true;
    injector.join();
  });
  kern.run();
  root.join();
  EXPECT_EQ(kern.total_reboots(), 1);
  EXPECT_EQ(kern.fault_epoch(gate.id()), 1);
}

// A root-context recovery-domain acquire that overlaps a simulated thread's
// domain waits for its release: the release must wake the root waiter (the
// thread does not exit until the root has the domain).
TEST(MultiCoreRootWaitTest, RootDomainAcquireWaitsForThreadRelease) {
  kernel::Kernel kern;
  kern.set_cores(2);
  BurnComponent comp(kern, "comp");
  std::atomic<bool> held{false};
  std::atomic<bool> release_now{false};
  std::atomic<bool> root_got{false};
  kern.thd_create("recoverer", 10, [&] {
    kern.acquire_recovery_domain(comp.id());
    held = true;
    while (!release_now) kern.yield();
    kern.release_recovery_domain();
    while (!root_got) kern.yield();
  });
  std::thread root([&] {
    while (!held) std::this_thread::yield();
    std::thread acquirer([&] {
      kern.acquire_recovery_domain(comp.id());
      root_got = true;
      kern.release_recovery_domain();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(root_got) << "the root acquired a domain the thread still held";
    release_now = true;
    acquirer.join();
  });
  kern.run();
  root.join();
  EXPECT_TRUE(root_got);
}

// --- fail-stop SWIFI at cores=4 --------------------------------------------

TEST(MultiCoreSwifiTest, FailStopEpisodesStayCleanAtFourCores) {
  swifi::CampaignConfig config;
  config.seed = 2016;
  const swifi::Campaign campaign(config);

  swifi::EpisodeOptions opts;
  opts.profile = swifi::InjectionProfile::kFailStop;
  opts.workload_iterations = 40;
  opts.check_invariants = true;
  opts.cores = 4;

  for (const char* service_name : {"sched", "ramfs", "lock", "evt", "tmr"}) {
    const std::string service(service_name);
    for (std::uint64_t episode = 0; episode < 3; ++episode) {
      const auto result = campaign.run_episode_detail(
          service, swifi::episode_seed(config.seed, "mc/" + service, episode), opts);
      EXPECT_EQ(result.invariant_violations, 0)
          << service << " episode " << episode << " at cores=4";
      EXPECT_FALSE(result.crashed) << service << " episode " << episode << " at cores=4"
                                   << " crash_kind=" << static_cast<int>(result.crash_kind);
    }
  }
}

}  // namespace
}  // namespace sg
