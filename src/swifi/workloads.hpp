#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "components/system.hpp"

namespace sg::swifi {

/// Shared control/observation block between a benchmark workload and the
/// campaign driver. The workload bumps `iterations` once per completed,
/// *verified* iteration and clears `correct` on any semantic violation
/// (wrong data read back, lock safety breach, lost event...).
///
/// `iterations`, `correct` and `fail_reason` are atomics: at cores>1 the
/// workload threads (and the SWIFI context) read and write them from
/// different host threads at once.
struct WorkloadState {
  int target_iterations = 400;
  std::atomic<int> iterations{0};
  std::atomic<bool> correct{true};
  /// Thread ids running inside the target component (SWIFI victims).
  std::vector<kernel::ThreadId> victims;
  /// Objects shared between workload threads; owned here so they outlive
  /// every thread (the kernel joins all threads before run() returns).
  std::vector<std::shared_ptr<void>> keepalive;

  std::atomic<const char*> fail_reason{""};
  void fail(const char* reason) {
    fail_reason = reason;
    correct = false;
  }
  bool done() const { return iterations >= target_iterations; }
};

/// Installs the §V-B micro-workload for `service` into `system`: creates the
/// client component(s) and workload thread(s) (not yet running — the caller
/// invokes kernel().run()). Workloads:
///   sched : two threads ping-pong with sched_blk/sched_wakeup
///   mman  : pages granted, aliased into another component, then revoked
///   ramfs : a file is opened, a byte written, read back, closed
///   lock  : one thread holds, another contends, release -> acquire
///   evt   : one thread waits, another triggers from a different component
///   tmr   : a thread wakes then blocks periodically
void install_workload(components::System& system, const std::string& service,
                      WorkloadState& state);

}  // namespace sg::swifi
