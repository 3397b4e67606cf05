#include "components/lock.hpp"

#include <algorithm>

#include "components/sys_util.hpp"
#include "util/assert.hpp"

namespace sg::components {

using kernel::Args;
using kernel::CallCtx;
using kernel::Value;

LockComponent::LockComponent(kernel::Kernel& kernel, kernel::CompId sched,
                             kernel::FaultProfile profile, std::uint64_t seed)
    : Component(kernel, "lock", /*image_bytes=*/16 * 1024),
      sched_(sched),
      sched_block_(kernel.component(sched).resolve("sched_block_raw")),
      sched_wakeup_(kernel.component(sched).resolve("sched_wakeup_raw")),
      profile_(profile),
      rng_(seed) {
  export_fn("lock_alloc", [this](CallCtx& ctx, const Args& a) { return alloc(ctx, a); });
  export_fn("lock_take", [this](CallCtx& ctx, const Args& a) { return take(ctx, a); });
  export_fn("lock_release", [this](CallCtx& ctx, const Args& a) { return release(ctx, a); });
  export_fn("lock_free", [this](CallCtx& ctx, const Args& a) { return free_fn(ctx, a); });
}

Value LockComponent::alloc(CallCtx& ctx, const Args& args) {
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 1 || args.size() == 2);
  // Recovery replays carry the previous id as a hint so client-visible lock
  // ids stay stable across micro-reboots.
  Value id;
  if (args.size() == 2) {
    id = args[1];
    next_id_ = std::max(next_id_, id + 1);
  } else {
    id = next_id_++;
  }
  locks_.try_emplace(id);
  return id;
}

Value LockComponent::take(CallCtx& ctx, const Args& args) {
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 3);
  auto it = locks_.find(args[1]);
  if (it == locks_.end()) return kernel::kErrInval;
  // The owning thread is explicit interface state (tracked as descriptor
  // data): a recovery walk re-acquires *on behalf of the pre-fault owner*,
  // regardless of which thread happens to drive the walk (T1 recovers at the
  // touching thread's priority, which may be a contender).
  const auto owner_tid = static_cast<kernel::ThreadId>(args[2]);

  for (std::size_t spin = 0;; ++spin) {
    ctx.loop_guard(spin, 10000);
    Lock& lock = locks_.at(args[1]);
    if (lock.owner == kernel::kNoThread) {
      lock.owner = owner_tid;
      lock.owner_comp = ctx.client;
      return kernel::kOk;
    }
    if (lock.owner == owner_tid) return kernel::kOk;  // Re-take during recovery.
    lock.waiters.push_back(ctx.thd);
    // Contended: block through the scheduler (our server). If *we* get
    // micro-rebooted while this thread sleeps, ServerRebooted unwinds it back
    // to the client stub — which re-contends at the thread's own priority.
    sys_invoke(kernel_, id(), sched_, sched_block_, {ctx.thd});
    // Woken: the retry re-executes the take path in the server's pipeline
    // (another injection window), after dropping any stale waiter entry.
    auto relook = locks_.find(args[1]);
    if (relook == locks_.end()) return kernel::kErrInval;  // Freed while blocked.
    auto& waiters = relook->second.waiters;
    waiters.erase(std::remove(waiters.begin(), waiters.end(), ctx.thd), waiters.end());
    kernel::simulate_server_work(ctx, profile_, rng_);
  }
}

Value LockComponent::release(CallCtx& ctx, const Args& args) {
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 2);
  auto it = locks_.find(args[1]);
  if (it == locks_.end()) return kernel::kErrInval;
  Lock& lock = it->second;
  if (lock.owner != ctx.thd && lock.owner != kernel::kNoThread) {
    // Releasing someone else's lock is a client error.
    return kernel::kErrInval;
  }
  lock.owner = kernel::kNoThread;
  lock.owner_comp = kernel::kNoComp;
  if (!lock.waiters.empty()) {
    const kernel::ThreadId next = lock.waiters.front();
    lock.waiters.pop_front();
    sys_invoke(kernel_, id(), sched_, sched_wakeup_, {next});
  }
  return kernel::kOk;
}

Value LockComponent::free_fn(CallCtx& ctx, const Args& args) {
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 2);
  auto it = locks_.find(args[1]);
  if (it == locks_.end()) return kernel::kErrInval;
  // Erase *before* waking: a woken (possibly higher-priority) contender
  // preempts inside the wakeup and must observe the lock as gone (EINVAL)
  // rather than re-block on a half-freed object.
  const std::deque<kernel::ThreadId> waiters = std::move(it->second.waiters);
  locks_.erase(it);
  for (const kernel::ThreadId waiter : waiters) {
    sys_invoke(kernel_, id(), sched_, sched_wakeup_, {waiter});
  }
  return kernel::kOk;
}

kernel::ThreadId LockComponent::owner_of(Value lockid) const {
  auto it = locks_.find(lockid);
  return it == locks_.end() ? kernel::kNoThread : it->second.owner;
}

std::size_t LockComponent::waiters_on(Value lockid) const {
  auto it = locks_.find(lockid);
  return it == locks_.end() ? 0 : it->second.waiters.size();
}

void LockComponent::reset_state() {
  locks_.clear();
  // next_id_ deliberately survives the micro-reboot: recycling ids would let
  // a fresh allocation collide with a tracked-but-not-yet-recovered
  // descriptor (ABA). A real implementation derives the watermark by
  // reflecting on client stubs/storage; we keep the counter monotonic.
}

}  // namespace sg::components
