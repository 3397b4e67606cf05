#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "components/system.hpp"
#include "util/assert.hpp"
#include "kernel/booter.hpp"
#include "kernel/fault.hpp"
#include "kernel/kernel.hpp"
#include "tests/test_util.hpp"

namespace sg {
namespace {

using kernel::Args;
using kernel::CallCtx;
using kernel::Value;

class EchoComponent final : public kernel::Component {
 public:
  explicit EchoComponent(kernel::Kernel& kernel) : Component(kernel, "echo") {
    export_fn("echo", [](CallCtx&, const Args& args) -> Value { return args.at(0); });
    export_fn("boom", [this](CallCtx&, const Args&) -> Value {
      throw kernel::ComponentFault(id(), kernel::FaultKind::kInjected, "test");
    });
    export_fn("state_set", [this](CallCtx&, const Args& args) -> Value {
      state_ = args.at(0);
      return kernel::kOk;
    });
    export_fn("state_get", [this](CallCtx&, const Args&) -> Value { return state_; });
  }
  void reset_state() override { state_ = 0; }

 private:
  Value state_ = 0;
};

TEST(KernelTest, ThreadsRunInPriorityOrder) {
  kernel::Kernel kern;
  std::vector<int> order;
  kern.thd_create("low", 20, [&] { order.push_back(20); });
  kern.thd_create("high", 5, [&] { order.push_back(5); });
  kern.thd_create("mid", 10, [&] { order.push_back(10); });
  kern.run();
  EXPECT_EQ(order, (std::vector<int>{5, 10, 20}));
}

TEST(KernelTest, BlockAndWakeupHandOff) {
  kernel::Kernel kern;
  std::vector<std::string> events;
  const kernel::ThreadId sleeper = kern.thd_create("sleeper", 5, [&] {
    events.push_back("sleep");
    kern.block_current();
    events.push_back("woke");
  });
  kern.thd_create("waker", 10, [&] {
    events.push_back("wake-him");
    kern.wakeup(sleeper);  // Higher-priority sleeper preempts us immediately.
    events.push_back("waker-done");
  });
  kern.run();
  EXPECT_EQ(events, (std::vector<std::string>{"sleep", "wake-him", "woke", "waker-done"}));
}

TEST(KernelTest, TimedBlockAdvancesVirtualTime) {
  kernel::Kernel kern;
  bool woke_by_timeout = false;
  kern.thd_create("timer", 5, [&] {
    const kernel::VirtualTime before = kern.now();
    const bool woken = kern.block_current_until(before + 500);
    woke_by_timeout = !woken;
    EXPECT_GE(kern.now(), before + 500);
  });
  kern.run();
  EXPECT_TRUE(woke_by_timeout);
}

TEST(KernelTest, DeadlockIsDetectedAsCrash) {
  kernel::Kernel kern;
  kern.thd_create("stuck", 5, [&] { kern.block_current(); });
  EXPECT_THROW(kern.run(), kernel::SystemCrash);
}

TEST(KernelTest, InvocationReturnsValue) {
  kernel::Kernel kern;
  EchoComponent echo(kern);
  Value got = 0;
  kern.thd_create("caller", 5, [&] {
    got = kern.invoke(kernel::kNoComp, echo.id(), "echo", {1234}).ret;
  });
  kern.run();
  EXPECT_EQ(got, 1234);
}

TEST(KernelTest, FaultTriggersMicroRebootAndFaultFlag) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);
  EchoComponent echo(kern);
  booter.capture_image(echo);

  bool fault_seen = false;
  Value state_after = -1;
  kern.thd_create("caller", 5, [&] {
    kern.invoke(kernel::kNoComp, echo.id(), "state_set", {77});
    const auto res = kern.invoke(kernel::kNoComp, echo.id(), "boom", {});
    fault_seen = res.fault;
    state_after = kern.invoke(kernel::kNoComp, echo.id(), "state_get", {}).ret;
  });
  kern.run();
  EXPECT_TRUE(fault_seen);
  EXPECT_EQ(state_after, 0);  // Micro-reboot wiped the component state.
  EXPECT_EQ(kern.fault_epoch(echo.id()), 1);
  EXPECT_EQ(booter.reboots(), 1);
}

TEST(BooterTest, PristineImageIsWriteOnceAndSurvivesReboots) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);
  EchoComponent echo(kern);
  booter.capture_image(echo);
  EXPECT_TRUE(booter.has_image(echo.id()));
  EXPECT_EQ(booter.captures(), 1);

  kern.thd_create("caller", 5, [&] {
    kern.invoke(kernel::kNoComp, echo.id(), "state_set", {77});
    // A re-capture attempt after the component has mutated its state must be
    // a no-op: silently re-baselining here would bake the (possibly
    // corrupted) live state into every future reboot.
    booter.capture_image(echo);
    EXPECT_EQ(booter.captures(), 1);
    kern.inject_crash(echo.id());
    // The reboot restored the *initial* state, not the pre-crash one.
    EXPECT_EQ(kern.invoke(kernel::kNoComp, echo.id(), "state_get", {}).ret, 0);
    // And the image survives any number of reboots without re-capturing.
    kern.inject_crash(echo.id());
    kern.inject_crash(echo.id());
    EXPECT_EQ(booter.captures(), 1);
  });
  kern.run();
  EXPECT_EQ(booter.reboots(), 3);
}

TEST(BooterTest, RefreshImageIsTheExplicitRebaseline) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);
  EchoComponent echo(kern);
  booter.capture_image(echo);
  booter.capture_image(echo);  // No-op.
  EXPECT_EQ(booter.captures(), 1);
  booter.refresh_image(echo);  // The only sanctioned overwrite.
  EXPECT_EQ(booter.captures(), 2);
}

TEST(KernelTest, BlockedThreadUnwindsWhenServerRebooted) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);

  // A component whose handler blocks the calling thread.
  class Blocker final : public kernel::Component {
   public:
    explicit Blocker(kernel::Kernel& kernel) : Component(kernel, "blocker") {
      export_fn("nap", [this](CallCtx&, const Args&) -> Value {
        kernel_.block_current();  // Throws ServerRebooted if we get rebooted.
        return kernel::kOk;
      });
    }
    void reset_state() override {}
  } blocker(kern);
  booter.capture_image(blocker);

  bool fault_flag = false;
  const kernel::ThreadId napper = kern.thd_create("napper", 5, [&] {
    const auto res = kern.invoke(kernel::kNoComp, blocker.id(), "nap", {});
    fault_flag = res.fault;
  });
  kern.thd_create("crasher", 10, [&] {
    kern.inject_crash(blocker.id());
    kern.wakeup(napper);
  });
  kern.run();
  EXPECT_TRUE(fault_flag);  // ServerRebooted surfaced as a fault to the stub layer.
}

TEST(KernelTest, CapabilityDenialIsAnError) {
  kernel::Kernel kern;
  EchoComponent echo(kern);
  EchoComponent client(kern);
  kern.set_default_allow(false);
  bool threw = false;
  kern.thd_create("caller", 5, [&] {
    try {
      kern.invoke(client.id(), echo.id(), "echo", {1});
    } catch (const AssertionError&) {
      threw = true;
    }
    kern.grant_cap(client.id(), echo.id());
    EXPECT_EQ(kern.invoke(client.id(), echo.id(), "echo", {7}).ret, 7);
  });
  kern.run();
  EXPECT_TRUE(threw);
}

TEST(KernelTest, ShutdownUnwindsAllThreads) {
  kernel::Kernel kern;
  int progressed = 0;
  kern.thd_create("sleepers", 5, [&] { kern.block_current(); ++progressed; });
  kern.thd_create("controller", 10, [&] { kern.shutdown(); });
  kern.run();  // Must terminate; blocked thread unwinds without running on.
  EXPECT_EQ(progressed, 0);
}

// --- handoff edges: every wakeup the per-thread handoff must not lose ------

// A crash recorded while the other threads still sit in their start-up wait
// (never dispatched): the shutdown must wake them, run() must rethrow, and
// every host thread must be joined.
TEST(KernelHandoffTest, CrashDuringStartupWakesParkedThreads) {
  for (const int cores : {1, 4}) {
    kernel::Kernel kern;
    kern.set_cores(cores);
    std::vector<kernel::ThreadId> parked;
    for (int t = 0; t < 8; ++t) {
      parked.push_back(kern.thd_create("parked" + std::to_string(t), 50, [&] { kern.yield(); }));
    }
    kern.thd_create("crasher", 1, [] {
      throw kernel::SystemCrash(kernel::CrashKind::kHang, kernel::kNoComp, "crash at start-up");
    });
    EXPECT_THROW(kern.run(), kernel::SystemCrash) << "cores=" << cores;
    for (const kernel::ThreadId thd : parked) {
      EXPECT_EQ(kern.thread_state(thd), kernel::ThreadState::kExited) << "cores=" << cores;
    }
  }
}

// shutdown() from a root (non-simulated) host thread while one thread is
// blocked and another timed-blocked: both must unwind without running on.
TEST(KernelHandoffTest, RootShutdownUnwindsBlockedAndTimedBlockedThreads) {
  for (const int cores : {1, 2}) {
    kernel::Kernel kern;
    kern.set_cores(cores);
    std::atomic<int> progressed{0};
    const kernel::ThreadId sleeper = kern.thd_create("sleeper", 5, [&] {
      kern.block_current();
      ++progressed;
    });
    const kernel::ThreadId napper = kern.thd_create("napper", 5, [&] {
      kern.block_current_until(kern.now() + 1'000'000'000);
      ++progressed;
    });
    // Keeps the machine busy so neither the idle clock jump nor the
    // deadlock detector ends the blocks first; unwinds at shutdown.
    kern.thd_create("spinner", 10, [&] {
      for (;;) kern.yield();
    });
    std::thread root([&] {
      while (kern.thread_state(sleeper) != kernel::ThreadState::kBlocked ||
             kern.thread_state(napper) != kernel::ThreadState::kTimedBlocked) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      kern.shutdown();
    });
    kern.run();
    root.join();
    EXPECT_EQ(progressed.load(), 0) << "cores=" << cores;
  }
}

// A 16-thread yield ring at cores=1: the handoff keeps exact FIFO order
// within a priority level, and every thread runs every round.
TEST(KernelHandoffTest, SixteenThreadYieldRingKeepsFifoOrder) {
  constexpr int kThreads = 16;
  constexpr int kRounds = 50;
  kernel::Kernel kern;
  std::vector<int> order;
  for (int t = 0; t < kThreads; ++t) {
    kern.thd_create("ring" + std::to_string(t), 10, [&, t] {
      for (int r = 0; r < kRounds; ++r) {
        order.push_back(t);
        kern.yield();
      }
    });
  }
  kern.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kThreads * kRounds));
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], static_cast<int>(i % kThreads)) << "position " << i;
  }
  EXPECT_EQ(kern.max_concurrent_running(), 1);
}

}  // namespace
}  // namespace sg
