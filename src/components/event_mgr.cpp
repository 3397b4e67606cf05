#include "components/event_mgr.hpp"

#include <algorithm>

#include "components/sys_util.hpp"
#include "util/assert.hpp"

namespace sg::components {

using kernel::Args;
using kernel::CallCtx;
using kernel::Value;

EventMgrComponent::EventMgrComponent(kernel::Kernel& kernel, kernel::CompId sched,
                                     c3::StorageComponent& storage, kernel::FaultProfile profile,
                                     std::uint64_t seed)
    : Component(kernel, "evt", /*image_bytes=*/24 * 1024),
      sched_(sched),
      sched_block_(kernel.component(sched).resolve("sched_block_raw")),
      sched_wakeup_(kernel.component(sched).resolve("sched_wakeup_raw")),
      storage_(storage),
      profile_(profile),
      rng_(seed) {
  export_fn("evt_split", [this](CallCtx& ctx, const Args& a) { return split(ctx, a); });
  export_fn("evt_wait", [this](CallCtx& ctx, const Args& a) { return wait(ctx, a); });
  export_fn("evt_trigger", [this](CallCtx& ctx, const Args& a) { return trigger(ctx, a); });
  export_fn("evt_free", [this](CallCtx& ctx, const Args& a) { return free_fn(ctx, a); });
}

void EventMgrComponent::resync_storage() {
  const int storage_epoch = kernel_.fault_epoch(storage_.id());
  if (storage_epoch == storage_epoch_) return;
  storage_epoch_ = storage_epoch;
  ++storage_resyncs_;
  for (const auto& [evtid, event] : events_) {
    storage_.store_data("evt", evtid, {0, event.pending, 0});
  }
}

Value EventMgrComponent::split(CallCtx& ctx, const Args& args) {
  resync_storage();
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 3 || args.size() == 4);
  // A grouped event's parent must exist (group trees are server state).
  // After a micro-reboot a missing parent yields EINVAL, which the server
  // stub turns into a storage lookup + recreation upcall to the parent's
  // creator (G0/U0) before replaying this split.
  if (args[1] != 0 && events_.count(args[1]) == 0) return kernel::kErrInval;
  Value evtid;
  if (args.size() == 4) {  // Recovery replay: global ids must stay stable (G0).
    evtid = args[3];
    next_id_ = std::max(next_id_, evtid + 1);
  } else {
    evtid = next_id_++;
  }
  Event& event = events_[evtid];
  event.creator = static_cast<kernel::CompId>(args[0]);
  event.parent = args[1];
  event.grp = args[2];
  // G1: pending trigger counts are resource data; restore them so triggers
  // delivered before a fault are not lost.
  if (const auto slice = storage_.fetch_data("evt", evtid)) {
    event.pending = slice->length;
  } else {
    storage_.store_data("evt", evtid, {0, 0, 0});
  }
  return evtid;
}

Value EventMgrComponent::wait(CallCtx& ctx, const Args& args) {
  resync_storage();
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 2);
  const Value evtid = args[1];
  for (std::size_t spin = 0;; ++spin) {
    ctx.loop_guard(spin, 10000);
    auto it = events_.find(evtid);
    if (it == events_.end()) return kernel::kErrInval;
    Event& event = it->second;
    if (event.pending > 0) {
      const Value delivered = event.pending;
      event.pending = 0;
      event.waiter = kernel::kNoThread;
      storage_.store_data("evt", evtid, {0, 0, 0});  // G1 critical region.
      return delivered;
    }
    event.waiter = ctx.thd;
    sys_invoke(kernel_, id(), sched_, sched_block_, {ctx.thd});
  }
}

Value EventMgrComponent::trigger(CallCtx& ctx, const Args& args) {
  resync_storage();
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 2);
  auto it = events_.find(args[1]);
  if (it == events_.end()) return kernel::kErrInval;
  Event& event = it->second;
  ++event.pending;
  // G1 critical region: record the pending count before anyone can observe it.
  storage_.store_data("evt", args[1], {0, event.pending, 0});
  if (event.waiter != kernel::kNoThread) {
    const kernel::ThreadId waiter = event.waiter;
    event.waiter = kernel::kNoThread;
    sys_invoke(kernel_, id(), sched_, sched_wakeup_, {waiter});
  }
  return kernel::kOk;
}

Value EventMgrComponent::free_fn(CallCtx& ctx, const Args& args) {
  resync_storage();
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 2);
  auto it = events_.find(args[1]);
  if (it == events_.end()) return kernel::kErrInval;
  // Erase before waking so a preempting waiter observes EINVAL, not a
  // half-freed event it would re-block on.
  const kernel::ThreadId waiter = it->second.waiter;
  events_.erase(it);
  storage_.erase_data("evt", args[1]);
  if (waiter != kernel::kNoThread) {
    sys_invoke(kernel_, id(), sched_, sched_wakeup_, {waiter});
  }
  return kernel::kOk;
}

Value EventMgrComponent::pending_of(Value evtid) const {
  auto it = events_.find(evtid);
  return it == events_.end() ? -1 : it->second.pending;
}

void EventMgrComponent::reset_state() {
  events_.clear();
  // next_id_ survives conceptually via the storage component's records; keep
  // monotonicity by *not* resetting it (a real implementation derives it
  // from the storage records on reboot).
}

}  // namespace sg::components
