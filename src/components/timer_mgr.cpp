#include "components/timer_mgr.hpp"

#include <algorithm>

#include "components/sys_util.hpp"
#include "util/assert.hpp"

namespace sg::components {

using kernel::Args;
using kernel::CallCtx;
using kernel::Value;

TimerMgrComponent::TimerMgrComponent(kernel::Kernel& kernel, kernel::CompId sched,
                                     kernel::FaultProfile profile, std::uint64_t seed)
    : Component(kernel, "tmr", /*image_bytes=*/16 * 1024),
      sched_(sched),
      sched_block_timed_(kernel.component(sched).resolve("sched_block_timed_raw")),
      sched_wakeup_(kernel.component(sched).resolve("sched_wakeup_raw")),
      profile_(profile),
      rng_(seed) {
  export_fn("tmr_setup", [this](CallCtx& ctx, const Args& a) { return setup(ctx, a); });
  export_fn("tmr_block", [this](CallCtx& ctx, const Args& a) { return block(ctx, a); });
  export_fn("tmr_cancel", [this](CallCtx& ctx, const Args& a) { return cancel(ctx, a); });
  export_fn("tmr_free", [this](CallCtx& ctx, const Args& a) { return free_fn(ctx, a); });
}

Value TimerMgrComponent::setup(CallCtx& ctx, const Args& args) {
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 2 || args.size() == 3);
  if (args[1] <= 0) return kernel::kErrInval;
  Value tmid;
  if (args.size() == 3) {
    tmid = args[2];
    next_id_ = std::max(next_id_, tmid + 1);
  } else {
    tmid = next_id_++;
  }
  Timer& timer = timers_[tmid];
  timer.period_us = args[1];
  timer.next_deadline = kernel_.clock().now() + static_cast<kernel::VirtualTime>(args[1]);
  return tmid;
}

Value TimerMgrComponent::block(CallCtx& ctx, const Args& args) {
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 2);
  auto it = timers_.find(args[1]);
  if (it == timers_.end()) return kernel::kErrInval;
  Timer& timer = it->second;
  // Keep period boundaries stable: catch up if we overran.
  // Deadlines are virtual-clock readings: periods stay exact under idle
  // fast-forward because the clock jumps straight to them.
  while (timer.next_deadline <= kernel_.clock().now()) {
    timer.next_deadline += static_cast<kernel::VirtualTime>(timer.period_us);
  }
  timer.waiter = ctx.thd;
  const Value woken = sys_invoke(kernel_, id(), sched_, sched_block_timed_,
                                 {ctx.thd, static_cast<Value>(timer.next_deadline)});
  auto again = timers_.find(args[1]);  // Map may have been wiped while blocked.
  if (again != timers_.end()) {
    again->second.waiter = kernel::kNoThread;
    again->second.next_deadline += static_cast<kernel::VirtualTime>(again->second.period_us);
  }
  return woken;
}

Value TimerMgrComponent::cancel(CallCtx& ctx, const Args& args) {
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 2);
  auto it = timers_.find(args[1]);
  if (it == timers_.end()) return kernel::kErrInval;
  if (it->second.waiter != kernel::kNoThread) {
    sys_invoke(kernel_, id(), sched_, sched_wakeup_, {it->second.waiter});
    it->second.waiter = kernel::kNoThread;
  }
  return kernel::kOk;
}

Value TimerMgrComponent::free_fn(CallCtx& ctx, const Args& args) {
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 2);
  auto it = timers_.find(args[1]);
  if (it == timers_.end()) return kernel::kErrInval;
  // Erase before waking (see LockComponent::free_fn).
  const kernel::ThreadId waiter = it->second.waiter;
  timers_.erase(it);
  if (waiter != kernel::kNoThread) {
    sys_invoke(kernel_, id(), sched_, sched_wakeup_, {waiter});
  }
  return kernel::kOk;
}

void TimerMgrComponent::reset_state() {
  timers_.clear();
  // next_id_ survives: see LockComponent::reset_state (ABA avoidance).
}

}  // namespace sg::components
