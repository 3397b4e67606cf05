#pragma once

#include <exception>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "c3/state_machine.hpp"
#include "components/system.hpp"
#include "components/trace_check.hpp"
#include "kernel/kernel.hpp"

namespace sg::test {

/// RAII guard for trace-verified tests: enables tracing on construction and,
/// on destruction, runs the recovery-invariant checker over everything the
/// System recorded. Violations fail the test; whenever the test failed for
/// any reason (including a violation), the Chrome trace is dumped to
/// SG_TRACE_DUMP for post-mortem (CI uploads that directory as an artifact).
class TraceCheck {
 public:
  explicit TraceCheck(components::System& sys, std::string label)
      : sys_(sys), label_(std::move(label)) {
    sys_.kernel().tracer().set_enabled(true);
  }

  TraceCheck(const TraceCheck&) = delete;
  TraceCheck& operator=(const TraceCheck&) = delete;

  ~TraceCheck() {
    // Unwinding from a SystemCrash/assertion: the trace legitimately stops
    // mid-recovery, so invariant checking would report half-finished paths.
    // Still dump the trace — it is exactly what post-mortem needs.
    if (std::uncaught_exceptions() == 0) {
      const std::vector<std::string> violations =
          components::check_recovery_invariants(sys_);
      for (const std::string& violation : violations) {
        ADD_FAILURE() << label_ << ": " << violation;
      }
    }
    if (::testing::Test::HasFailure() || std::uncaught_exceptions() > 0) {
      const std::string path = components::dump_chrome_trace(sys_, label_);
      if (!path.empty()) {
        std::cerr << "[trace] " << label_ << ": Chrome trace written to " << path << "\n";
      }
    }
  }

 private:
  components::System& sys_;
  std::string label_;
};

/// Runs `body` on a fresh simulated thread inside `system` and drives the
/// kernel until every thread exits. Rethrows any SystemCrash.
inline void run_thread(components::System& system, std::function<void()> body,
                       kernel::Priority prio = 10) {
  system.kernel().thd_create("test-main", prio, std::move(body));
  system.kernel().run();
}

/// Runs several bodies as concurrently-scheduled threads (priority order =
/// vector order unless priorities given).
inline void run_threads(components::System& system,
                        std::vector<std::pair<kernel::Priority, std::function<void()>>> bodies) {
  int index = 0;
  for (auto& [prio, body] : bodies) {
    system.kernel().thd_create("test-thd-" + std::to_string(index++), prio, std::move(body));
  }
  system.kernel().run();
}

/// `state`'s R0 recovery walk with its fn ids mapped back to names, so tests
/// can state expected walks, and compare machines whose ids may differ.
inline std::vector<std::string> walk_names(const c3::DescStateMachine& sm, c3::StateId state) {
  std::vector<std::string> names;
  for (const c3::FnId fn : sm.recovery_walk_ids(state)) names.push_back(sm.fn_name(fn));
  return names;
}

/// Test parameter naming one service's spec builder. It prints as the service
/// name, so ctest registers the case as `.../<service>` rather than under the
/// builder's address, which moves with every relink.
struct NamedSpec {
  const char* service;
  c3::InterfaceSpec (*make)();
};

inline void PrintTo(const NamedSpec& spec, std::ostream* os) { *os << spec.service; }

}  // namespace sg::test
