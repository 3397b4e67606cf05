#include "swifi/workloads.hpp"

#include "c3/storage.hpp"
#include "util/assert.hpp"

namespace sg::swifi {

using components::System;
using kernel::Value;

namespace {

// --- Sched: two threads ping-pong via sched_blk / sched_wakeup (§V-B) ------

void install_sched(System& sys, WorkloadState& state) {
  auto& app = sys.create_app("wl-sched");
  auto& kern = sys.kernel();
  auto sched = std::make_shared<components::SchedClient>(sys.invoker(app, "sched"));
  auto tid_a = std::make_shared<std::atomic<Value>>(0);
  auto tid_b = std::make_shared<std::atomic<Value>>(0);
  auto ping_last = std::make_shared<std::atomic<bool>>(false);
  state.keepalive.insert(state.keepalive.end(), {sched, tid_a, tid_b, ping_last});

  // cores>1: the partner's setup may still be in flight on another core when
  // this side first needs its id (the single-runner kernel guarantees ping's
  // setup completes first by priority order). The spin is free at cores=1 --
  // the id is already set, so no extra yields and the trace is unchanged.
  auto await_peer = [&kern, &state](const std::atomic<Value>& peer) {
    while (peer == 0 && state.correct) kern.yield();
  };
  // Termination handshake: ping raises `ping_last` BEFORE its final wakeup,
  // and pong stops on that flag. Testing `iterations` instead lost a wakeup
  // at cores>1: pong runs in parallel with ping, could read the count before
  // ping's post-wakeup increment, consume ping's final wakeup in its next
  // blk, test again before the increment landed, and block with no wakeup
  // ever coming (a kDeadlock naming only pong). Every blk of pong is now
  // followed by a wakeup from ping, the last of them ordered after the flag.
  // At cores=1 pong only tests while ping is blocked (flag and count both
  // unset) or exited (both set), so the schedule is unchanged.
  state.victims.push_back(kern.thd_create(
      "ping", 10, [&kern, &app, &state, sched, tid_a, tid_b, ping_last, await_peer] {
        *tid_a = sched->setup(app.id(), 10);
        if (*tid_a < 0) state.fail("sched setup A");
        for (;;) {
          sched->blk(app.id(), *tid_a);
          await_peer(*tid_b);
          if (state.iterations + 1 >= state.target_iterations) *ping_last = true;
          sched->wakeup(app.id(), *tid_b);
          if (++state.iterations >= state.target_iterations) break;
        }
      }));
  state.victims.push_back(kern.thd_create(
      "pong", 11, [&kern, &app, &state, sched, tid_a, tid_b, ping_last, await_peer] {
        *tid_b = sched->setup(app.id(), 11);
        if (*tid_b < 0) state.fail("sched setup B");
        for (;;) {
          await_peer(*tid_a);
          sched->wakeup(app.id(), *tid_a);
          if (*ping_last) break;
          sched->blk(app.id(), *tid_b);
        }
      }));
}

// --- MM: pages granted, aliased into another component, revoked ------------

void install_mman(System& sys, WorkloadState& state) {
  auto& app_a = sys.create_app("wl-mm-a");
  auto& app_b = sys.create_app("wl-mm-b");
  auto& kern = sys.kernel();
  state.victims.push_back(kern.thd_create("mm", 10, [&sys, &app_a, &app_b, &state] {
    components::MmClient mm(sys.invoker(app_a, "mman"));
    while (!state.done()) {
      const Value vaddr = 0x100000 + (state.iterations % 16) * 0x1000;
      const Value root = mm.get_page(app_a.id(), vaddr);
      if (root < 0) {
        state.fail("get_page");
        break;
      }
      const Value alias = mm.alias_page(app_a.id(), root, app_b.id(), vaddr + 0x80000);
      if (alias < 0) {
        state.fail("alias_page");
        break;
      }
      const Value frame_root = mm.touch(app_a.id(), root);
      const Value frame_alias = mm.touch(app_a.id(), alias);
      if (frame_root < 0 || frame_root != frame_alias) state.fail("alias frame mismatch");
      if (mm.release_page(app_a.id(), root) != kernel::kOk) state.fail("release");
      // Revocation must have removed the alias too (transitively).
      if (mm.touch(app_a.id(), alias) != kernel::kErrInval) state.fail("alias survived revoke");
      ++state.iterations;
    }
  }));
}

// --- FS: a file is opened, a byte written, read back, closed ---------------

void install_ramfs(System& sys, WorkloadState& state) {
  auto& app = sys.create_app("wl-fs");
  auto& kern = sys.kernel();
  state.victims.push_back(kern.thd_create("fs", 10, [&sys, &app, &state] {
    components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
    while (!state.done()) {
      const Value pathid =
          c3::StorageComponent::hash_id("/wl/" + std::to_string(state.iterations % 8));
      const Value fd = fs.open(pathid);
      if (fd < 0) {
        state.fail("open");
        break;
      }
      const char byte = static_cast<char>('A' + state.iterations % 26);
      if (fs.write(fd, std::string(1, byte)) != 1) state.fail("write");
      if (fs.lseek(fd, 0) != kernel::kOk) state.fail("lseek");
      const std::string got = fs.read(fd, 1);
      if (got.size() != 1 || got[0] != byte) state.fail("readback mismatch");
      if (fs.close(fd) != kernel::kOk) state.fail("close");
      ++state.iterations;
    }
  }));
}

// --- Lock: one holds, another contends; release -> acquire -----------------

void install_lock(System& sys, WorkloadState& state) {
  auto& app = sys.create_app("wl-lock");
  auto& kern = sys.kernel();
  auto lock = std::make_shared<components::LockClient>(sys.invoker(app, "lock"), sys.kernel());
  auto lock_id = std::make_shared<std::atomic<Value>>(0);
  auto in_critical = std::make_shared<std::atomic<int>>(0);
  state.keepalive.insert(state.keepalive.end(), {lock, lock_id, in_critical});

  auto critical_section = [&kern, &state, in_critical] {
    ++*in_critical;
    if (*in_critical != 1) state.fail("mutual exclusion violated");
    kern.yield();  // Give SWIFI and the other thread a chance to interleave.
    --*in_critical;
  };

  state.victims.push_back(
      kern.thd_create("holder", 10, [&sys, &app, &state, lock, lock_id, critical_section] {
        *lock_id = lock->alloc(app.id());
        if (*lock_id < 0) state.fail("alloc");
        while (!state.done()) {
          if (lock->take(app.id(), *lock_id) != kernel::kOk) state.fail("take");
          critical_section();
          if (lock->release(app.id(), *lock_id) != kernel::kOk) state.fail("release");
          ++state.iterations;
          sys.kernel().yield();  // Fairness: let the contender win the lock.
        }
      }));
  state.victims.push_back(
      kern.thd_create("contender", 10, [&sys, &app, &state, lock, lock_id, critical_section] {
        sys.kernel().yield();  // Let the holder allocate first.
        while (!state.done()) {
          if (*lock_id <= 0) {
            sys.kernel().yield();
            continue;
          }
          if (lock->take(app.id(), *lock_id) != kernel::kOk) state.fail("contend take");
          critical_section();
          if (lock->release(app.id(), *lock_id) != kernel::kOk) state.fail("contend release");
          sys.kernel().yield();
        }
      }));
}

// --- Event: one waits, the other triggers from a different component -------

void install_evt(System& sys, WorkloadState& state) {
  auto& waiter_comp = sys.create_app("wl-evt-w");
  auto& trigger_comp = sys.create_app("wl-evt-t");
  auto& kern = sys.kernel();
  auto evtid = std::make_shared<std::atomic<Value>>(0);
  state.keepalive.push_back(evtid);

  state.victims.push_back(kern.thd_create("waiter", 10, [&sys, &waiter_comp, &state, evtid] {
    components::EvtClient evt(sys.invoker(waiter_comp, "evt"));
    *evtid = evt.split(waiter_comp.id());
    if (*evtid <= 0) state.fail("split");
    while (state.iterations < state.target_iterations) {
      const Value delivered = evt.wait(waiter_comp.id(), *evtid);
      if (delivered < 0) {
        state.fail("wait");
        break;
      }
      state.iterations += static_cast<int>(delivered);
    }
  }));
  state.victims.push_back(kern.thd_create("trigger", 11, [&sys, &trigger_comp, &state, evtid] {
    components::EvtClient evt(sys.invoker(trigger_comp, "evt"));
    sys.kernel().yield();
    // cores>1: the waiter's split may still be in flight on another core; a
    // single yield only guarantees it completed on the single-runner kernel.
    // Spinning costs nothing at cores=1 (evtid is already set, zero extra
    // yields, identical trace) and stops on a failed split via `correct`.
    while (*evtid == 0 && state.correct) sys.kernel().yield();
    // Exactly target_iterations triggers: pending counts survive faults
    // (G1), so the waiter's total must come out exact — losses deadlock the
    // episode and are classified "not recovered".
    for (int t = 0; t < state.target_iterations; ++t) {
      if (*evtid <= 0) break;
      if (evt.trigger(trigger_comp.id(), *evtid) != kernel::kOk) state.fail("trigger");
      sys.kernel().yield();
    }
  }));
}

// --- Storage: the recovery substrate itself is the target -------------------
//
// Flips armed against the storage component land inside its entry points
// (maybe_fault), which only execute while some service touches G0/G1 — so
// the workload must *drive* storage traffic. Two fs threads do (every twrite
// stores a G1 record; every post-reboot find_file fetches one), and a
// disruptor periodically crashes ramfs so G1 fetch/rebuild paths run
// *concurrently* with faults in storage. A lost file surfaces through the
// coordinator's degraded flag, never as silent corruption.

void install_storage(System& sys, WorkloadState& state) {
  auto& kern = sys.kernel();
  for (int w = 0; w < 2; ++w) {
    auto& app = sys.create_app("wl-st-" + std::to_string(w));
    state.victims.push_back(kern.thd_create("st-fs", 10, [&sys, &app, &state, w] {
      components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
      while (!state.done()) {
        const Value pathid = c3::StorageComponent::hash_id(
            "/wl-st/" + std::to_string(w) + "/" + std::to_string(state.iterations % 8));
        const Value fd = fs.open(pathid);
        if (fd < 0) {
          state.fail("open");
          break;
        }
        const char byte = static_cast<char>('A' + state.iterations % 26);
        if (fs.write(fd, std::string(1, byte)) != 1) state.fail("write");
        if (fs.lseek(fd, 0) != kernel::kOk) state.fail("lseek");
        const std::string got = fs.read(fd, 1);
        if (got.size() != 1 || got[0] != byte) state.fail("readback mismatch");
        if (fs.close(fd) != kernel::kOk) state.fail("close");
        ++state.iterations;
      }
    }));
  }
  // The disruptor is deliberately NOT a victim: flips target storage, which
  // this thread never enters — arming one here would always read as
  // undetected and dilute the campaign.
  state.keepalive.push_back(std::make_shared<int>(0));
  kern.thd_create("st-disrupt", 3, [&sys, &state] {
    auto& kern2 = sys.kernel();
    const kernel::CompId ramfs = sys.service_component("ramfs").id();
    for (int round = 0; round < 4 && !state.done(); ++round) {
      kern2.block_current_until(kern2.now() + 400 + round * 350);
      if (state.done()) break;
      // Service fault concurrent with (potential) storage faults: recovery
      // must re-materialize ramfs state through a substrate that may itself
      // be mid-rebuild.
      kern2.inject_crash(ramfs);
    }
  });
}

// --- Timer: a thread wakes, then blocks periodically ------------------------

void install_tmr(System& sys, WorkloadState& state) {
  auto& app = sys.create_app("wl-tmr");
  auto& kern = sys.kernel();
  state.victims.push_back(kern.thd_create("periodic", 10, [&sys, &app, &state] {
    components::TimerClient tmr(sys.invoker(app, "tmr"));
    const Value tmid = tmr.setup(app.id(), 7);
    if (tmid < 0) state.fail("setup");
    kernel::VirtualTime last = sys.kernel().now();
    while (!state.done()) {
      tmr.block(app.id(), tmid);
      const kernel::VirtualTime now = sys.kernel().now();
      if (now < last) state.fail("time went backwards");
      last = now;
      ++state.iterations;
    }
    tmr.free(app.id(), tmid);
  }));
}

}  // namespace

void install_workload(System& sys, const std::string& service, WorkloadState& state) {
  if (service == "sched") return install_sched(sys, state);
  if (service == "mman") return install_mman(sys, state);
  if (service == "ramfs") return install_ramfs(sys, state);
  if (service == "lock") return install_lock(sys, state);
  if (service == "evt") return install_evt(sys, state);
  if (service == "tmr") return install_tmr(sys, state);
  if (service == "storage") return install_storage(sys, state);
  SG_ASSERT_MSG(false, "no workload for service " + service);
}

}  // namespace sg::swifi
