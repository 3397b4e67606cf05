// Layer probes: each times calls into one layer's public function from
// outside, giving the unit costs the attribution multiplies counts by.
#pragma once

#include <cstdint>

namespace sgbench {

/// Unit costs, each the median of several samples scaled to the reference
/// host (see host_speed()).
struct ProbeCosts {
  double switch_us_n2 = 0;   ///< Kernel::yield handoff, 2 runnable threads.
  double switch_us_n8 = 0;
  double switch_us_n16 = 0;
  double invoke_ns = 0;      ///< Kernel::invoke into a trivial component.
  double thd_spawn_us = 0;   ///< thd_create through exit, per thread.
  double boot_us = 0;        ///< components::System construction.
  double teardown_us = 0;    ///< components::System destruction.
  double none_op_ns = 0;     ///< Tracked-invoke op mix, kNone passthrough.
  /// Server-side work of one service invocation: the kNone op minus the
  /// bare kernel invoke.
  double handler_ns() const { return none_op_ns > invoke_ns ? none_op_ns - invoke_ns : 0.0; }
  double c3_track_ns = 0;    ///< SuperGlue minus kNone, per op.
  double c3stubs_track_ns = 0;  ///< Hand-written C3 stubs minus kNone, per op.
  double walk_us_per_desc = 0;  ///< On-demand R0 walk after inject_crash.
  double reboot_us = 0;      ///< inject_crash through micro-reboot.
  double parse_ns = 0;       ///< websrv::parse_request.
  double submit_ns = 0;      ///< websrv::ConnectionLayer::submit.
  double netstack_us = 0;    ///< websrv::network_stack_work + slice_checksum.

  /// Handoff cost at `threads` live threads, interpolated linearly between
  /// the measured points (clamped outside them).
  double switch_us_at(double threads) const;
};

/// Runs every probe; `small` shrinks the iteration counts for the smoke test.
ProbeCosts run_probes(std::uint64_t seed, bool small);

}  // namespace sgbench
