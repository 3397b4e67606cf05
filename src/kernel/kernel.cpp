#include "kernel/kernel.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace sg::kernel {

namespace {
/// Which simulated thread this host thread embodies (kNoThread for the main
/// thread and other non-simulated contexts).
thread_local ThreadId tls_self = kNoThread;

/// The kernel that sim thread belongs to, plus a direct pointer to its
/// SimThread record. A host thread embodies at most one simulated thread of
/// one kernel for its whole life, so a single TLS trio suffices; tagging the
/// kernel keeps self-identification correct when a sim thread of one kernel
/// calls into another (fleet replicas, campaign workers).
thread_local const void* tls_kernel = nullptr;
thread_local void* tls_thread = nullptr;

/// Occupancy owner id for root/boot contexts (kNoThread means "free").
constexpr ThreadId kRootOwner = -2;

/// SG_PIN_CPU=1 pins every simulated thread to one host CPU: the paper's
/// evaluation runs on a single enabled core, and one CPU removes cross-core
/// handoff noise from wall-clock measurements. The CPU is the lowest one in
/// the affinity mask the first simulated thread inherits from the process
/// (the rule sgbench/run.py uses), computed once; -1 means no pinning.
int pin_cpu() {
  static const int cpu = [] {
    const char* env = std::getenv("SG_PIN_CPU");
    if (env == nullptr || env[0] != '1') return -1;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
      SG_WARN("kernel", "SG_PIN_CPU=1: cannot read the affinity mask: " << std::strerror(errno));
      return -1;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) return c;
    }
    return -1;
  }();
  return cpu;
}

/// Root-context register file (setup code running outside any simulated
/// thread still satisfies RegOps' interface; flips never target it).
/// Thread-local so campaign workers driving independent Systems from their
/// own host threads never share a scratch register file.
thread_local RegisterFile g_root_regs;
}  // namespace

// ---------------------------------------------------------------------------
// CallCtx
// ---------------------------------------------------------------------------

RegisterFile& CallCtx::regs() const { return kernel.thread_registers(thd); }

void CallCtx::loop_guard(std::size_t iteration, std::size_t bound) const {
  if (iteration > bound) {
    throw SystemCrash(CrashKind::kHang, server,
                      "watchdog: loop exceeded " + std::to_string(bound) + " iterations");
  }
}

// ---------------------------------------------------------------------------
// Component
// ---------------------------------------------------------------------------

Component::Component(Kernel& kernel, std::string name, std::size_t image_bytes)
    : kernel_(kernel), name_(std::move(name)), image_bytes_(image_bytes) {
  id_ = kernel_.register_component(this);
}

Component::~Component() { kernel_.unregister_component(id_); }

void Component::export_fn(const std::string& fn_name, Handler handler) {
  SG_ASSERT_MSG(handlers_.emplace(fn_name, std::move(handler)).second,
                "duplicate export of " + fn_name + " in " + name_);
}

Component::Handler Component::replace_fn(const std::string& fn_name, Handler handler) {
  auto it = handlers_.find(fn_name);
  SG_ASSERT_MSG(it != handlers_.end(), name_ + " does not export " + fn_name);
  Handler old = std::move(it->second);
  it->second = std::move(handler);
  return old;
}

std::vector<std::string> Component::exported_fns() const {
  std::vector<std::string> names;
  names.reserve(handlers_.size());
  for (const auto& [name, handler] : handlers_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Value Component::dispatch(CallCtx& ctx, const std::string& fn_name, const Args& args) {
  auto it = handlers_.find(fn_name);
  SG_ASSERT_MSG(it != handlers_.end(), name_ + " does not export " + fn_name);
  return it->second(ctx, args);
}

// ---------------------------------------------------------------------------
// Kernel: tracing
// ---------------------------------------------------------------------------

void Kernel::trace_impl(trace::EventKind kind, CompId comp, std::int32_t a, std::int32_t b,
                        std::int64_t c, std::int64_t d) {
  tracer_.record(clock_.now(), kind, comp, tls_self, a, b, c, d);
}

// ---------------------------------------------------------------------------
// Kernel: components & capabilities
// ---------------------------------------------------------------------------

Kernel::Kernel() = default;

Kernel::~Kernel() = default;

CompId Kernel::register_component(Component* comp) {
  std::lock_guard<std::mutex> lock(mtx_);
  const CompId id = next_comp_id_++;
  components_[id] = comp;
  fault_epochs_[id] = 0;
  return id;
}

void Kernel::unregister_component(CompId id) {
  std::lock_guard<std::mutex> lock(mtx_);
  components_.erase(id);
}

Component& Kernel::component(CompId id) const {
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = components_.find(id);
  SG_ASSERT_MSG(it != components_.end(), "unknown component id " + std::to_string(id));
  return *it->second;
}

Component* Kernel::find_component(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mtx_);
  // Lowest-id match: the map is unordered, and schedule replay (src/explore)
  // needs every lookup to resolve identically across runs.
  Component* found = nullptr;
  for (const auto& [id, comp] : components_) {
    if (comp->name() == name && (found == nullptr || id < found->id())) found = comp;
  }
  return found;
}

std::vector<CompId> Kernel::component_ids() const {
  std::lock_guard<std::mutex> lock(mtx_);
  std::vector<CompId> ids;
  ids.reserve(components_.size());
  for (const auto& [id, comp] : components_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

int Kernel::fault_epoch(CompId id) const {
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = fault_epochs_.find(id);
  return it == fault_epochs_.end() ? 0 : it->second;
}

void Kernel::grant_cap(CompId client, CompId server) {
  std::lock_guard<std::mutex> lock(mtx_);
  caps_.insert((static_cast<std::uint64_t>(static_cast<std::uint32_t>(client)) << 32) |
               static_cast<std::uint32_t>(server));
}

bool Kernel::cap_ok(CompId client, CompId server) const {
  if (default_allow_) return true;
  if (client == kNoComp) return true;  // Root/boot context is trusted.
  std::lock_guard<std::mutex> lock(mtx_);
  return caps_.count((static_cast<std::uint64_t>(static_cast<std::uint32_t>(client)) << 32) |
                     static_cast<std::uint32_t>(server)) != 0;
}

// ---------------------------------------------------------------------------
// Kernel: threads & dispatch
// ---------------------------------------------------------------------------

Kernel::SimThread& Kernel::thd(ThreadId id) const {
  // Thread ids are 1-based: services use tids as descriptor ids, and
  // descriptor id 0 is the c3 kNoParent sentinel.
  SG_ASSERT_MSG(id >= 1 && static_cast<std::size_t>(id) <= threads_.size(),
                "bad thread id " + std::to_string(id));
  return *threads_[static_cast<std::size_t>(id) - 1];
}

Kernel::SimThread* Kernel::self_if_running() const {
  if (tls_kernel != this || tls_self == kNoThread) return nullptr;
  return static_cast<SimThread*>(tls_thread);
}

ThreadId Kernel::thd_create(const std::string& name, Priority prio, std::function<void()> entry,
                            CompId home) {
  std::unique_lock<std::mutex> lock(mtx_);
  const auto id = static_cast<ThreadId>(threads_.size() + 1);
  threads_.push_back(std::make_unique<SimThread>());
  SimThread& t = *threads_.back();
  t.id = id;
  t.name = name;
  t.prio = prio;
  t.home = home;
  t.affinity = next_affinity_++ % ncores_;
  t.entry = std::move(entry);
  make_ready_locked(t);
  kick_idle_cores_locked();  // Mid-run creation at cores>1: use an idle core.
  t.host = std::thread([this, &t] { trampoline(t); });
  return id;
}

void Kernel::set_cores(int n) {
  std::lock_guard<std::mutex> lock(mtx_);
  SG_ASSERT_MSG(!running_, "set_cores while the kernel is running");
  SG_ASSERT_MSG(n >= 1 && n <= 64, "core count out of range: " + std::to_string(n));
  SG_ASSERT_MSG(schedule_policy_ == nullptr || n == 1,
                "schedule exploration requires cores=1 (deterministic replay)");
  ncores_ = n;
  cores_.assign(static_cast<std::size_t>(n), Core{});
  next_affinity_ = 0;
  for (const auto& tp : threads_) tp->affinity = next_affinity_++ % ncores_;
}

std::vector<Kernel::CoreStats> Kernel::core_stats() const {
  std::lock_guard<std::mutex> lock(mtx_);
  std::vector<CoreStats> stats;
  stats.reserve(cores_.size());
  for (const Core& c : cores_) stats.push_back({c.dispatches, c.steals});
  return stats;
}

int Kernel::max_concurrent_running() const {
  std::lock_guard<std::mutex> lock(mtx_);
  return max_concurrent_;
}

ThreadId Kernel::current_thread() const {
  // A simulated thread asking "who am I" answers from TLS (it is running by
  // construction). Root contexts see whichever thread core 0 is running —
  // identical to the old single-runner `current_` at cores=1.
  if (tls_kernel == this && tls_self != kNoThread) return tls_self;
  std::lock_guard<std::mutex> lock(mtx_);
  return cores_[0].running;
}

void Kernel::make_ready_locked(SimThread& t) {
  t.state = ThreadState::kReady;
  t.ready_seq = ready_seq_counter_++;
}

bool Kernel::ranks_before_locked(const SimThread& a, const SimThread& b) const {
  if (a.prio != b.prio) return a.prio < b.prio;
  if (a.id == sched_incumbent_) return true;
  if (b.id == sched_incumbent_) return false;
  return a.ready_seq < b.ready_seq;
}

// ---------------------------------------------------------------------------
// Kernel: per-core dispatch, occupancy, recovery token
// ---------------------------------------------------------------------------

bool Kernel::occ_free_locked(CompId comp, ThreadId me) const {
  if (ncores_ == 1 || shutdown_) return true;
  // Fault containment (invariant 1): a component is closed from the moment
  // its fault is recorded until its micro-reboot (or quarantine). Only the
  // recovery context with authority over it (its domain's owner, or the
  // machine holder) may enter to quiesce and restore it; everyone else
  // queues and re-fences on the bumped epoch once it reopens.
  if (fault_pending_.count(comp) != 0 && !recovery_authority_locked(comp, me)) {
    return false;
  }
  auto it = occupants_.find(comp);
  return it == occupants_.end() || it->second.owner == me;
}

void Kernel::occ_acquire_locked(CompId comp, ThreadId me) {
  if (ncores_ == 1 || shutdown_ || comp == kNoComp) return;
  Occupant& occ = occupants_[comp];
  SG_ASSERT_MSG(occ.owner == kNoThread || occ.owner == me,
                "occupancy acquire of comp " + std::to_string(comp) + " held by " +
                    std::to_string(occ.owner));
  occ.owner = me;
  ++occ.depth;
}

void Kernel::occ_release_locked(CompId comp, ThreadId me) {
  if (ncores_ == 1 || comp == kNoComp) return;
  auto it = occupants_.find(comp);
  // Tolerant of shutdown teardown: unwinding threads may release slots the
  // no-op'd acquire path never took.
  if (it == occupants_.end() || it->second.owner != me) return;
  if (--it->second.depth > 0) return;
  occupants_.erase(it);
  // Ready any thread blocked waiting to occupy this component; the dispatch
  // gate re-verifies before running them.
  for (const auto& tp : threads_) {
    if (tp->state == ThreadState::kBlocked && tp->occ_wait == comp) make_ready_locked(*tp);
  }
  kick_idle_cores_locked();
  root_cv_.notify_all();  // A root-context reboot seize may be waiting for the slot.
}

void Kernel::clear_fault_pending_locked(CompId comp) {
  if (fault_pending_.erase(comp) == 0) return;
  for (const auto& tp : threads_) {
    if (tp->state == ThreadState::kBlocked && tp->occ_wait == comp) make_ready_locked(*tp);
  }
  kick_idle_cores_locked();
  root_cv_.notify_all();  // A root-context reboot seize may be waiting for the reopen.
}

bool Kernel::occ_wait_acquire_locked(std::unique_lock<std::mutex>& lock, SimThread& self,
                                     CompId comp) {
  if (ncores_ == 1 || shutdown_) return false;
  if (occ_free_locked(comp, self.id)) {
    occ_acquire_locked(comp, self.id);
    return false;
  }
  // Block like any scheduler wait: the core is released so the occupant (or
  // anyone else) can use it; occ_release_locked readies us when the slot
  // frees, and the dispatcher acquires `occ_wait` on our behalf.
  self.occ_wait = comp;
  self.state = ThreadState::kBlocked;
  try {
    reschedule_and_wait_locked(lock, self);
  } catch (...) {
    self.occ_wait = kNoComp;
    throw;
  }
  self.occ_wait = kNoComp;
  return true;
}

bool Kernel::any_other_core_active_locked(int core) const {
  for (int c = 0; c < ncores_; ++c) {
    if (c != core && cores_[static_cast<std::size_t>(c)].running != kNoThread) return true;
  }
  return false;
}

Kernel::SimThread* Kernel::pick_for_core_locked(int core, bool* stolen) {
  SimThread* best = nullptr;
  bool best_affine = false;
  std::size_t ready_count = 0;
  for (const auto& tp : threads_) {
    SimThread& t = *tp;
    if (t.state != ThreadState::kReady) continue;
    ++ready_count;
    if (ncores_ > 1 && !shutdown_) {
      const CompId target = t.occ_wait != kNoComp ? t.occ_wait : top_or_home_locked(t);
      if (!occ_free_locked(target, t.id)) continue;  // Occupied: not dispatchable yet.
    }
    const bool affine = t.affinity == core;
    bool better;
    if (best == nullptr) {
      better = true;
    } else if (t.prio != best->prio) {
      better = t.prio < best->prio;
    } else if (t.id == sched_incumbent_) {
      better = true;
    } else if (best->id == sched_incumbent_) {
      better = false;
    } else if (affine != best_affine) {
      better = affine;  // Prefer this core's own threads within a tier.
    } else {
      better = t.ready_seq < best->ready_seq;
    }
    if (better) {
      best = &t;
      best_affine = affine;
    }
  }
  if (best != nullptr && schedule_policy_ != nullptr && !shutdown_ && ready_count > 1) {
    *stolen = false;
    return &thd(policy_pick_locked(ready_count));
  }
  *stolen = best != nullptr && !best_affine;
  return best;
}

bool Kernel::dispatch_core_locked(int core, bool allow_idle_steps) {
  Core& c = cores_[static_cast<std::size_t>(core)];
  if (c.running != kNoThread) return false;
  for (;;) {
    bool stolen = false;
    SimThread* next = pick_for_core_locked(core, &stolen);
    if (next != nullptr) {
      sched_incumbent_ = kNoThread;  // Valid for exactly one pick.
      next->state = ThreadState::kRunning;
      next->running_on = core;
      c.running = next->id;
      ++c.dispatches;
      if (stolen) {
        ++c.steals;
        next->affinity = core;  // The thread migrates; future picks prefer here.
      }
      if (ncores_ > 1 && !shutdown_) {
        occ_acquire_locked(next->occ_wait != kNoComp ? next->occ_wait : top_or_home_locked(*next),
                           next->id);
      }
      ++running_now_;
      if (running_now_ > max_concurrent_) max_concurrent_ = running_now_;
      // The one place a thread becomes runnable-on-a-core, so the one handoff
      // signal: only `next` waits on its own condition variable.
      next->wake.notify_one();
      return true;
    }
    if (!allow_idle_steps) return false;
    // Nothing dispatchable here. Idle-jumping virtual time (and declaring
    // deadlock) is a whole-machine consensus: only the last active core may
    // take either step, otherwise a busy core could still produce wakeups.
    if (any_other_core_active_locked(core)) return false;
    bool any_timed = false;
    bool live = false;
    for (const auto& tp : threads_) {
      if (tp->state == ThreadState::kTimedBlocked) any_timed = true;
      if (tp->state != ThreadState::kExited) live = true;
    }
    if (any_timed) {
      advance_time_to_next_deadline_locked();
      kick_idle_cores_locked(core);
      continue;  // Expired timers became ready.
    }
    if (shutdown_ || !live) return false;
    // No runnable thread and no pending timeout. Live threads remain, so the
    // system has deadlocked (e.g., an injected fault lost a wakeup).
    sched_incumbent_ = kNoThread;
    // Name the stuck threads in the crash message: a terminal deadlock is
    // exactly the report a lost-wakeup hunt starts from.
    std::string stuck;
    for (const auto& tp : threads_) {
      if (tp->state != ThreadState::kBlocked && tp->state != ThreadState::kTimedBlocked) continue;
      if (!stuck.empty()) stuck += ", ";
      stuck += tp->name + "(comp " +
               std::to_string(tp->stack.empty() ? tp->home : tp->stack.back().comp) +
               (tp->occ_wait != kNoComp ? ", occ-wait " + std::to_string(tp->occ_wait) : "") +
               (tp->token_wait ? ", token-wait" : "") + ")";
    }
    for (const auto& [oc, occ] : occupants_) {
      stuck += "; occ[" + std::to_string(oc) + "] held by " +
               (occ.owner == kRootOwner ? std::string("root") : thd(occ.owner).name) +
               " depth " + std::to_string(occ.depth);
    }
    for (const auto& [owner, rec] : active_recoveries_) {
      stuck += "; domain[" +
               (owner == kRootOwner ? std::string("root") : thd(owner).name) + "] " +
               (rec.machine ? std::string("machine")
                            : std::to_string(rec.comps.size()) + " comps (root " +
                                  std::to_string(rec.root) + ")") +
               (rec.waiting_machine ? ", escalating" : "");
    }
    crash_ = crash_ ? crash_ : std::optional<SystemCrash>(SystemCrash(
                                   CrashKind::kDeadlock, kNoComp,
                                   "all threads blocked with no pending timeout: " + stuck));
    shutdown_ = true;
    for (const auto& tp : threads_) {
      if (tp->state == ThreadState::kBlocked || tp->state == ThreadState::kTimedBlocked) {
        make_ready_locked(*tp);
      }
    }
    kick_idle_cores_locked(core);
    wake_all_locked();
  }
}

void Kernel::undispatch_locked(SimThread& t) {
  if (t.running_on < 0) return;
  Core& c = cores_[static_cast<std::size_t>(t.running_on)];
  SG_ASSERT(c.running == t.id);
  c.running = kNoThread;
  t.running_on = -1;
  --running_now_;
  if (ncores_ > 1) {
    // A thread in occupancy-wait limbo holds nothing (it released its old
    // slot before waiting); everyone else holds exactly top-or-home.
    if (t.occ_wait == kNoComp) occ_release_locked(top_or_home_locked(t), t.id);
  }
}

void Kernel::kick_idle_cores_locked(int except_core) {
  if (ncores_ == 1 || !running_) return;
  for (int c = 0; c < ncores_; ++c) {
    if (c == except_core || cores_[static_cast<std::size_t>(c)].running != kNoThread) continue;
    dispatch_core_locked(c, /*allow_idle_steps=*/false);
  }
}

ThreadId Kernel::recovery_caller_id() const {
  return (tls_kernel == this && tls_self != kNoThread) ? tls_self : kRootOwner;
}

bool Kernel::recovery_authority_locked(CompId comp, ThreadId me) const {
  auto it = active_recoveries_.find(me);
  if (it == active_recoveries_.end()) return false;
  auto own = domain_owner_.find(comp);
  if (own != domain_owner_.end()) return own->second == me;
  // The machine holder has authority over every comp not claimed by a parked
  // escalator (whose closed comps stay closed until it resumes).
  return it->second.machine;
}

bool Kernel::machine_grant_ok_locked(ThreadId me) const {
  if (machine_held_) return false;
  auto mine = active_recoveries_.find(me);
  SG_ASSERT(mine != active_recoveries_.end());
  for (const auto& [owner, rec] : active_recoveries_) {
    if (owner == me) continue;
    if (!rec.waiting_machine) return false;  // Another recovery is still running.
    if (rec.seq < mine->second.seq) return false;  // Earlier escalator wins.
  }
  return true;
}

void Kernel::wake_token_waiters_locked() {
  for (const auto& tp : threads_) {
    if (tp->token_wait && tp->state == ThreadState::kBlocked) make_ready_locked(*tp);
  }
  kick_idle_cores_locked();
  root_cv_.notify_all();
}

void Kernel::machine_upgrade_locked(std::unique_lock<std::mutex>& lock, ThreadId me, CompId about,
                                    std::int32_t reason) {
  {
    ActiveRecovery& rec = active_recoveries_.at(me);
    if (rec.machine) return;
    trace(trace::EventKind::kDomainEscalate, about, reason,
          static_cast<std::int32_t>(active_recoveries_.size()), me,
          static_cast<std::int64_t>(rec.seq));
    rec.waiting_machine = true;
  }
  // Parked escalators are part of other escalators' grant conditions; make
  // every waiter re-evaluate now that this recovery stopped running.
  wake_token_waiters_locked();
  SimThread* self = self_if_running();
  while (!machine_grant_ok_locked(me)) {
    if (self != nullptr && !shutdown_) {
      self->token_wait = true;
      self->state = ThreadState::kBlocked;
      try {
        reschedule_and_wait_locked(lock, *self);
      } catch (...) {
        self->token_wait = false;
        active_recoveries_.at(me).waiting_machine = false;
        throw;
      }
      self->token_wait = false;
    } else {
      root_cv_.wait(lock, [&] { return machine_grant_ok_locked(me) || shutdown_; });
      if (shutdown_ && !machine_grant_ok_locked(me)) {
        active_recoveries_.at(me).waiting_machine = false;
        return;  // Teardown: other owners may never release.
      }
    }
  }
  ActiveRecovery& rec = active_recoveries_.at(me);
  rec.waiting_machine = false;
  rec.machine = true;
  machine_held_ = true;
  machine_owner_ = me;
}

void Kernel::acquire_recovery_domain(CompId faulted, bool record_fault) {
  if (ncores_ == 1) {
    // The single-runner handoff already serializes recovery globally; only
    // the fault record (and the high-water stat) remains.
    std::lock_guard<std::mutex> lock(mtx_);
    if (record_fault) trace(trace::EventKind::kFault, faulted);
    if (max_concurrent_recoveries_ < 1) max_concurrent_recoveries_ = 1;
    return;
  }
  const std::vector<CompId> closure = domain_closure(faulted);  // Resolver runs unlocked.
  std::unique_lock<std::mutex> lock(mtx_);
  SimThread* self = self_if_running();
  const ThreadId me = self != nullptr ? self->id : kRootOwner;
  // The fault is recorded atomically with the successful claim — never while
  // waiting, so an active recovery can still invoke into the faulted
  // component (it is healthy-as-far-as-admission-knows until its recovery
  // actually starts), which is what makes the wait deadlock-free.
  auto record = [&] {
    if (!record_fault) return;
    record_fault = false;
    if (!shutdown_) fault_pending_.insert(faulted);
    trace(trace::EventKind::kFault, faulted);
  };
  auto it = active_recoveries_.find(me);
  if (it != active_recoveries_.end()) {
    // Re-entrant: nested fault / explicit reboot inside an active recovery.
    bool covered = it->second.machine;
    if (!covered) {
      covered = true;
      for (const CompId c : closure) {
        auto own = domain_owner_.find(c);
        if (own == domain_owner_.end() || own->second != me) {
          covered = false;
          break;
        }
      }
    }
    if (!covered) {
      // A nested fault escaped the held closure: extend by taking the machine.
      machine_upgrade_locked(lock, me, faulted, kEscalateNestedFault);
    }
    record();
    ++active_recoveries_.at(me).depth;  // Re-find: the upgrade may have waited.
    return;
  }
  bool escalated = false;
  for (;;) {
    bool overlap = false;
    for (const CompId c : closure) {
      if (domain_owner_.count(c) != 0) {
        overlap = true;
        break;
      }
    }
    if (overlap && !escalated) {
      // Freshly-overlapping closure: this recovery serializes behind every
      // active domain and then takes the whole machine.
      escalated = true;
      trace(trace::EventKind::kDomainEscalate, faulted, kEscalateOverlap,
            static_cast<std::int32_t>(active_recoveries_.size()), me, 0);
    }
    bool grantable;
    if (escalated) {
      grantable = !machine_held_ && active_recoveries_.empty();
    } else {
      bool escalator_parked = false;
      for (const auto& [owner, rec] : active_recoveries_) {
        if (rec.waiting_machine) {
          escalator_parked = true;  // Don't starve a machine upgrade in progress.
          break;
        }
      }
      grantable = !overlap && !machine_held_ && !escalator_parked;
    }
    if (grantable) {
      ActiveRecovery rec;
      rec.depth = 1;
      rec.seq = ++recovery_seq_counter_;
      rec.root = faulted;
      if (escalated) {
        rec.machine = true;
        machine_held_ = true;
        machine_owner_ = me;
      } else {
        rec.comps = closure;
        for (const CompId c : closure) domain_owner_[c] = me;
      }
      const std::uint64_t seq = rec.seq;
      const auto closure_size = escalated ? 0 : static_cast<std::int32_t>(closure.size());
      active_recoveries_.emplace(me, std::move(rec));
      if (static_cast<int>(active_recoveries_.size()) > max_concurrent_recoveries_) {
        max_concurrent_recoveries_ = static_cast<int>(active_recoveries_.size());
      }
      record();
      trace(trace::EventKind::kDomainAcquire, faulted, closure_size,
            static_cast<std::int32_t>(active_recoveries_.size()), me,
            static_cast<std::int64_t>(seq));
      return;
    }
    // Park (holding no claims) until a release or escalation changes the
    // picture; the loop re-evaluates from scratch.
    if (self != nullptr && !shutdown_) {
      self->token_wait = true;
      self->state = ThreadState::kBlocked;
      try {
        reschedule_and_wait_locked(lock, *self);
      } catch (...) {
        self->token_wait = false;
        throw;
      }
      self->token_wait = false;
    } else {
      root_cv_.wait(lock);
      if (shutdown_) {
        record();  // Teardown: vector the trace, claim nothing (release is tolerant).
        return;
      }
    }
  }
}

void Kernel::release_recovery_domain() {
  std::lock_guard<std::mutex> lock(mtx_);
  if (ncores_ == 1) return;
  const ThreadId me = recovery_caller_id();
  auto it = active_recoveries_.find(me);
  if (it == active_recoveries_.end()) return;  // Tolerant during teardown.
  ActiveRecovery& rec = it->second;
  if (--rec.depth > 0) return;
  trace(trace::EventKind::kDomainRelease, rec.root, rec.machine ? 1 : 0,
        static_cast<std::int32_t>(active_recoveries_.size()) - 1, me,
        static_cast<std::int64_t>(rec.seq));
  for (const CompId c : rec.comps) {
    auto own = domain_owner_.find(c);
    if (own != domain_owner_.end() && own->second == me) domain_owner_.erase(own);
  }
  if (rec.machine && machine_owner_ == me) {
    machine_held_ = false;
    machine_owner_ = kNoThread;
  }
  active_recoveries_.erase(it);
  wake_token_waiters_locked();
}

void Kernel::acquire_recovery_token() {
  std::unique_lock<std::mutex> lock(mtx_);
  if (ncores_ == 1) return;  // The single-runner handoff already serializes.
  SimThread* self = self_if_running();
  const ThreadId me = self != nullptr ? self->id : kRootOwner;
  auto it = active_recoveries_.find(me);
  if (it != active_recoveries_.end()) {
    // Re-entrant: a machine take mid-recovery upgrades the held domain.
    if (!it->second.machine) machine_upgrade_locked(lock, me, kNoComp, kEscalateToken);
    ++active_recoveries_.at(me).depth;
    return;
  }
  while (machine_held_ || !active_recoveries_.empty()) {
    if (self != nullptr && !shutdown_) {
      self->token_wait = true;
      self->state = ThreadState::kBlocked;
      try {
        reschedule_and_wait_locked(lock, *self);
      } catch (...) {
        self->token_wait = false;
        throw;
      }
      self->token_wait = false;
    } else {
      root_cv_.wait(lock,
                    [&] { return (!machine_held_ && active_recoveries_.empty()) || shutdown_; });
      if (shutdown_ && (machine_held_ || !active_recoveries_.empty())) {
        return;  // Teardown: owners may never release.
      }
    }
  }
  ActiveRecovery rec;
  rec.depth = 1;
  rec.seq = ++recovery_seq_counter_;
  rec.machine = true;
  machine_held_ = true;
  machine_owner_ = me;
  const std::uint64_t seq = rec.seq;
  active_recoveries_.emplace(me, std::move(rec));
  if (static_cast<int>(active_recoveries_.size()) > max_concurrent_recoveries_) {
    max_concurrent_recoveries_ = static_cast<int>(active_recoveries_.size());
  }
  trace(trace::EventKind::kDomainAcquire, kNoComp, 0,
        static_cast<std::int32_t>(active_recoveries_.size()), me,
        static_cast<std::int64_t>(seq));
}

void Kernel::release_recovery_token() { release_recovery_domain(); }

void Kernel::escalate_recovery_to_machine(std::int32_t reason) {
  std::unique_lock<std::mutex> lock(mtx_);
  if (ncores_ == 1) return;
  const ThreadId me = recovery_caller_id();
  auto it = active_recoveries_.find(me);
  SG_ASSERT_MSG(it != active_recoveries_.end(), "escalate without an active recovery");
  if (it->second.machine) return;
  machine_upgrade_locked(lock, me, it->second.root, reason);
}

bool Kernel::recovery_token_held_by_caller() const {
  std::lock_guard<std::mutex> lock(mtx_);
  if (ncores_ == 1) return true;  // Global serialization IS the token.
  return active_recoveries_.count(recovery_caller_id()) != 0;
}

void Kernel::set_domain_resolver(DomainResolver resolver) {
  std::lock_guard<std::mutex> lock(mtx_);
  domain_resolver_ = std::move(resolver);
}

std::vector<CompId> Kernel::domain_closure(CompId faulted) const {
  DomainResolver resolver;
  {
    std::lock_guard<std::mutex> lock(mtx_);
    resolver = domain_resolver_;
  }
  std::vector<CompId> closure;
  if (resolver) closure = resolver(faulted);  // Runs without the kernel lock.
  closure.push_back(faulted);
  std::sort(closure.begin(), closure.end());
  closure.erase(std::unique(closure.begin(), closure.end()), closure.end());
  return closure;
}

int Kernel::max_concurrent_recoveries() const {
  std::lock_guard<std::mutex> lock(mtx_);
  return max_concurrent_recoveries_;
}

std::int64_t Kernel::recovery_owner_key() const {
  std::lock_guard<std::mutex> lock(mtx_);
  if (ncores_ == 1) return 0;  // Constant: single-core bookkeeping is global.
  return static_cast<std::int64_t>(recovery_caller_id());
}

ThreadId Kernel::policy_pick_locked(std::size_t ready_count) {
  std::vector<const SimThread*> order;
  order.reserve(ready_count);
  for (const auto& tp : threads_) {
    if (tp->state == ThreadState::kReady) order.push_back(tp.get());
  }
  std::sort(order.begin(), order.end(),
            [this](const SimThread* a, const SimThread* b) { return ranks_before_locked(*a, *b); });
  // The policy chooses only within the top-priority tier: a strict-priority
  // kernel never runs a lower-priority thread over a ready higher-priority
  // one, so offering that choice would explore impossible executions. The
  // only genuine freedom is the FIFO tie-break among equals.
  std::size_t tier = 1;
  while (tier < order.size() && order[tier]->prio == order[0]->prio) ++tier;
  if (tier < 2) return order[0]->id;
  order.resize(tier);
  std::vector<SchedulePolicy::Candidate> candidates;
  candidates.reserve(order.size());
  for (const SimThread* t : order) {
    candidates.push_back(
        {t->id, t->prio, t->stack.empty() ? t->home : t->stack.back().comp});
  }
  std::size_t idx = schedule_policy_->pick(candidates);
  if (idx >= candidates.size()) idx = 0;
  const SimThread& picked = *order[idx];
  trace(trace::EventKind::kSchedPick,
        picked.stack.empty() ? picked.home : picked.stack.back().comp,
        static_cast<std::int32_t>(idx), static_cast<std::int32_t>(candidates.size()),
        static_cast<std::int64_t>(picked.id), static_cast<std::int64_t>(policy_choices_++));
  return picked.id;
}

void Kernel::advance_time_to_next_deadline_locked() {
  VirtualTime next = 0;
  bool found = false;
  for (const auto& tp : threads_) {
    if (tp->state == ThreadState::kTimedBlocked && (!found || tp->deadline < next)) {
      next = tp->deadline;
      found = true;
    }
  }
  SG_ASSERT(found);
  clock_.advance_to(next);
  wake_expired_timers_locked();
}

void Kernel::wake_expired_timers_locked() {
  for (const auto& tp : threads_) {
    if (tp->state == ThreadState::kTimedBlocked && tp->deadline <= clock_.now()) {
      tp->woken_explicitly = false;
      make_ready_locked(*tp);
    }
  }
}

void Kernel::reschedule_and_wait_locked(std::unique_lock<std::mutex>& lock, SimThread& self) {
  if (schedule_policy_ != nullptr && !shutdown_ && ++policy_steps_ > policy_step_limit_) {
    // Livelock safety net: an adversarial schedule can spin two threads
    // around each other forever (the exact hangs the explorer exists to
    // find). Convert the runaway run into a reportable whole-system crash.
    record_crash(SystemCrash(CrashKind::kHang, kNoComp,
                             "schedule policy exceeded its step budget"));
  }
  const int core = self.running_on >= 0 ? self.running_on : 0;
  undispatch_locked(self);
  dispatch_core_locked(core, /*allow_idle_steps=*/true);
  sched_incumbent_ = kNoThread;  // Valid for exactly one pick.
  kick_idle_cores_locked(core);
  if (self.state == ThreadState::kExited) return;
  self.wake.wait(lock, [&] { return self.state == ThreadState::kRunning && self.running_on >= 0; });
  if (shutdown_) throw ShutdownSignal{};  // Scheduled one last time to unwind.
}

void Kernel::trampoline(SimThread& t) {
  tls_self = t.id;
  tls_kernel = this;
  tls_thread = &t;
  if (const int cpu = pin_cpu(); cpu >= 0) {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    CPU_SET(cpu, &cpus);
    if (const int err = pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus); err != 0) {
      static std::atomic<bool> reported{false};
      if (!reported.exchange(true)) {
        SG_WARN("kernel", "SG_PIN_CPU=1: pinning to CPU " << cpu
                                                          << " failed: " << std::strerror(err));
      }
    }
  }
  {
    std::unique_lock<std::mutex> lock(mtx_);
    t.wake.wait(lock, [&] {
      return (running_ && t.state == ThreadState::kRunning && t.running_on >= 0) || shutdown_;
    });
    if (shutdown_ && !(t.state == ThreadState::kRunning && t.running_on >= 0)) {
      t.state = ThreadState::kExited;
      root_cv_.notify_all();  // run() waits for every thread to exit.
      return;
    }
  }
  try {
    t.entry();
  } catch (const ShutdownSignal&) {
    // Orderly unwind.
  } catch (const SystemCrash& crash) {
    std::lock_guard<std::mutex> lock(mtx_);
    record_crash(crash);
  } catch (const ComponentFault& fault) {
    // A fail-stop fault with no mediating invocation frame (fault in the
    // thread's home component / application code): the system cannot vector
    // it anywhere, so the machine dies.
    std::lock_guard<std::mutex> lock(mtx_);
    record_crash(SystemCrash(CrashKind::kDoubleFault, fault.comp(),
                             std::string("unmediated fault: ") + fault.what()));
  } catch (const ServerRebooted& reboot) {
    std::lock_guard<std::mutex> lock(mtx_);
    record_crash(SystemCrash(CrashKind::kDoubleFault, reboot.target(),
                             "ServerRebooted escaped all stubs"));
  } catch (const QuarantinedError& quarantined) {
    // A thread with no degraded-service path invoked a quarantined component:
    // the workload cannot make progress, which is a whole-system failure.
    std::lock_guard<std::mutex> lock(mtx_);
    record_crash(SystemCrash(CrashKind::kQuarantined, quarantined.target(),
                             "QuarantinedError escaped a thread entry"));
  }
  // Exit path: hand the core onward.
  std::unique_lock<std::mutex> lock(mtx_);
  t.state = ThreadState::kExited;
  t.stack.clear();
  if (t.running_on >= 0) {
    try {
      reschedule_and_wait_locked(lock, t);  // Returns immediately: state == kExited.
    } catch (const ShutdownSignal&) {
    }
  }
  root_cv_.notify_all();  // run() waits for every thread to exit.
}

void Kernel::record_crash(const SystemCrash& crash) {
  if (!crash_) crash_ = crash;
  shutdown_ = true;
  for (const auto& tp : threads_) {
    if (tp->state == ThreadState::kBlocked || tp->state == ThreadState::kTimedBlocked) {
      make_ready_locked(*tp);
    }
  }
  kick_idle_cores_locked();
  wake_all_locked();
}

void Kernel::wake_all_locked() {
  for (const auto& tp : threads_) tp->wake.notify_one();
  root_cv_.notify_all();
}

void Kernel::run() {
  std::unique_lock<std::mutex> lock(mtx_);
  SG_ASSERT_MSG(!threads_.empty(), "Kernel::run with no threads");
  SG_ASSERT_MSG(static_cast<int>(cores_.size()) == ncores_, "core table out of sync");
  running_ = true;
  running_now_ = 0;
  max_concurrent_ = 0;
  for (int c = 0; c < ncores_; ++c) dispatch_core_locked(c, /*allow_idle_steps=*/c == 0);
  root_cv_.wait(lock, [&] {
    return std::all_of(threads_.begin(), threads_.end(),
                       [](const auto& tp) { return tp->state == ThreadState::kExited; });
  });
  running_ = false;
  lock.unlock();
  for (const auto& tp : threads_) {
    if (tp->host.joinable()) tp->host.join();
  }
  lock.lock();
  // Crash teardown can leave occupancy / domain remnants; reset so reflection
  // after run() (tests, campaign classification) sees a quiesced machine.
  occupants_.clear();
  domain_owner_.clear();
  active_recoveries_.clear();
  machine_held_ = false;
  machine_owner_ = kNoThread;
  for (Core& c : cores_) c.running = kNoThread;
  if (crash_) {
    SystemCrash crash = *crash_;
    crash_.reset();
    shutdown_ = false;
    throw crash;
  }
  shutdown_ = false;
}

void Kernel::shutdown() {
  std::lock_guard<std::mutex> lock(mtx_);
  shutdown_ = true;
  for (const auto& tp : threads_) {
    if (tp->state == ThreadState::kBlocked || tp->state == ThreadState::kTimedBlocked) {
      make_ready_locked(*tp);
    }
  }
  kick_idle_cores_locked();
  wake_all_locked();
}

ThreadState Kernel::thread_state(ThreadId id) const {
  std::lock_guard<std::mutex> lock(mtx_);
  return thd(id).state;
}

Priority Kernel::thread_priority(ThreadId id) const {
  std::lock_guard<std::mutex> lock(mtx_);
  return thd(id).prio;
}

void Kernel::set_thread_priority(ThreadId id, Priority prio) {
  std::unique_lock<std::mutex> lock(mtx_);
  SimThread& t = thd(id);
  t.prio = prio;
  // Raising a *ready* thread above the running one is a preemption, not a
  // note for the next scheduling point.
  SimThread* self = self_if_running();
  if (self == nullptr || !running_ || shutdown_) {
    kick_idle_cores_locked();  // cores>1: the boosted thread may fit an idle core.
    return;
  }
  if (&t == self || t.state != ThreadState::kReady || t.prio >= self->prio) {
    kick_idle_cores_locked();
    return;
  }
  make_ready_locked(*self);
  reschedule_and_wait_locked(lock, *self);
  lock.unlock();
  // A component on our invocation stack may have been micro-rebooted while
  // the boosted thread ran; unwind stale frames if so.
  check_stack_epochs(*self);
}

RegisterFile& Kernel::thread_registers(ThreadId id) {
  if (id == kNoThread) return g_root_regs;
  std::lock_guard<std::mutex> lock(mtx_);
  return thd(id).regs;
}

const std::string& Kernel::thread_name(ThreadId id) const {
  std::lock_guard<std::mutex> lock(mtx_);
  return thd(id).name;
}

std::vector<ThreadId> Kernel::thread_ids() const {
  std::lock_guard<std::mutex> lock(mtx_);
  std::vector<ThreadId> ids;
  ids.reserve(threads_.size());
  for (const auto& tp : threads_) ids.push_back(tp->id);
  return ids;
}

CompId Kernel::thread_executing_in(ThreadId id) const {
  std::lock_guard<std::mutex> lock(mtx_);
  const SimThread& t = thd(id);
  return t.stack.empty() ? t.home : t.stack.back().comp;
}

std::vector<CompId> Kernel::thread_invocation_stack(ThreadId id) const {
  std::lock_guard<std::mutex> lock(mtx_);
  const SimThread& t = thd(id);
  std::vector<CompId> comps;
  comps.reserve(t.stack.size());
  for (const auto& frame : t.stack) comps.push_back(frame.comp);
  return comps;
}

// ---------------------------------------------------------------------------
// Kernel: scheduling primitives
// ---------------------------------------------------------------------------

void Kernel::yield() {
  SimThread* self = self_if_running();
  SG_ASSERT_MSG(self != nullptr, "yield outside simulated thread");
  {
    std::unique_lock<std::mutex> lock(mtx_);
    // A yield is a scheduling point like the timer interrupt: charge a tick
    // and deliver expired timeouts, so spin-yield loops cannot starve timed
    // threads (e.g., the latent-fault monitor).
    clock_.advance(tick_per_invocation_);
    wake_expired_timers_locked();
    make_ready_locked(*self);
    reschedule_and_wait_locked(lock, *self);
  }
  check_stack_epochs(*self);
}

void Kernel::check_stack_epochs(SimThread& self) {
  CompId stale = kNoComp;
  {
    std::lock_guard<std::mutex> lock(mtx_);
    for (const auto& frame : self.stack) {  // Outermost stale frame wins.
      if (fault_epochs_.at(frame.comp) != frame.epoch_at_entry) {
        stale = frame.comp;
        break;
      }
    }
  }
  if (stale != kNoComp) throw ServerRebooted(stale);
}

bool Kernel::block_current() {
  SimThread* self_ptr = self_if_running();
  SG_ASSERT_MSG(self_ptr != nullptr, "block_current outside simulated thread");
  SimThread& self = *self_ptr;
  {
    std::unique_lock<std::mutex> lock(mtx_);
    if (self.banked_wakeup) {
      // A genuine wakeup was consumed just before a micro-reboot unwound the
      // previous block; deliver it to this redo instead of sleeping.
      self.banked_wakeup = false;
      return true;
    }
    // Refuse to sleep inside a component that already rebooted: the T0
    // recovery sweep fires at reboot time, so a thread that was in flight
    // then (running or ready, stack containing the victim) missed its wake
    // and would sleep through recovery forever. Unwinding here IS that
    // missed wake. Single-runner kernels can't hit this (the sweep and the
    // blocker never overlap), so the check is a no-op on fresh stacks.
    for (const auto& frame : self.stack) {
      if (fault_epochs_.at(frame.comp) != frame.epoch_at_entry) {
        const CompId stale = frame.comp;
        lock.unlock();
        throw ServerRebooted(stale);
      }
    }
    trace(trace::EventKind::kBlock, self.stack.empty() ? self.home : self.stack.back().comp);
    self.state = ThreadState::kBlocked;
    self.woken_explicitly = false;
    self.wake_was_recovery = false;
    reschedule_and_wait_locked(lock, self);
  }
  check_stack_epochs_banking(self);
  return self.woken_explicitly && !self.wake_was_recovery;
}

void Kernel::bank_wakeup(ThreadId target_id) {
  std::lock_guard<std::mutex> lock(mtx_);
  thd(target_id).banked_wakeup = true;
}

void Kernel::check_stack_epochs_banking(SimThread& self) {
  CompId stale = kNoComp;
  {
    std::lock_guard<std::mutex> lock(mtx_);
    for (const auto& frame : self.stack) {
      if (fault_epochs_.at(frame.comp) != frame.epoch_at_entry) {
        stale = frame.comp;
        break;
      }
    }
    if (stale != kNoComp && self.woken_explicitly && !self.wake_was_recovery) {
      // The wakeup was real but the blocking call is about to be unwound and
      // redone — bank it so the redo's block consumes it.
      self.banked_wakeup = true;
    }
  }
  if (stale != kNoComp) throw ServerRebooted(stale);
}

bool Kernel::block_current_until(VirtualTime deadline) {
  SimThread* self_ptr = self_if_running();
  SG_ASSERT_MSG(self_ptr != nullptr, "block_current_until outside simulated thread");
  SimThread& self = *self_ptr;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mtx_);
      if (self.banked_wakeup) {
        self.banked_wakeup = false;
        return true;
      }
      if (deadline <= clock_.now()) return false;
      trace(trace::EventKind::kBlock, self.stack.empty() ? self.home : self.stack.back().comp,
            /*a=*/1, 0, static_cast<std::int64_t>(deadline));
      self.state = ThreadState::kTimedBlocked;
      self.deadline = deadline;
      self.woken_explicitly = false;
      self.wake_was_recovery = false;
      reschedule_and_wait_locked(lock, self);
    }
    check_stack_epochs_banking(self);
    // A T0 eager-recovery wake is spurious by design: with no stale frame to
    // unwind (the check above did not throw), the timed wait is still in
    // force, so re-block until the original deadline — exactly like
    // block_current's recovery-wake masking. Reporting it as genuine would
    // hand timed waiters (timer manager, supervisor backoff parks) an event
    // that never happened.
    if (self.woken_explicitly && self.wake_was_recovery) continue;
    return self.woken_explicitly;
  }
}

void Kernel::park_tick(VirtualTime dur) {
  SimThread* self_ptr = self_if_running();
  SG_ASSERT_MSG(self_ptr != nullptr, "park_tick outside simulated thread");
  SimThread& self = *self_ptr;
  {
    std::unique_lock<std::mutex> lock(mtx_);
    // Same bank-preserving park as the admission gate: a wakeup delivered
    // while we wait here belongs to whatever blocking call we make next.
    const bool saved_bank = self.banked_wakeup;
    self.banked_wakeup = false;
    self.state = ThreadState::kTimedBlocked;
    self.deadline = clock_.now() + dur;
    self.woken_explicitly = false;
    self.wake_was_recovery = false;
    reschedule_and_wait_locked(lock, self);
    if (saved_bank || (self.woken_explicitly && !self.wake_was_recovery)) {
      self.banked_wakeup = true;
    }
  }
  check_stack_epochs(self);
}

bool Kernel::wakeup(ThreadId target_id, bool recovery_wake) {
  std::unique_lock<std::mutex> lock(mtx_);
  SimThread& target = thd(target_id);
  if (target.state != ThreadState::kBlocked && target.state != ThreadState::kTimedBlocked) {
    // Wakeup racing ahead of the target's block: latch it in the kernel so
    // the next block consumes it instead of sleeping. Kernel state survives
    // component micro-reboots, which is exactly why the latch lives here —
    // a scheduler-component-side pending set would be wiped by the fault.
    if (!recovery_wake && target.state != ThreadState::kExited) target.banked_wakeup = true;
    return false;
  }
  if (target.occ_wait != kNoComp || target.token_wait) {
    // Blocked in a kernel-internal wait (occupancy admission or the recovery
    // token), not in a wakeup-consuming block. Those waits ignore
    // woken_explicitly, so delivering here would silently drop the wakeup
    // (cores > 1 only: a single-runner kernel never contends occupancy).
    // Latch genuine wakes for the thread's next real block; recovery wakes
    // are spurious and the internal wait has its own unblock path
    // (occupancy release / token grant).
    if (!recovery_wake) target.banked_wakeup = true;
    return false;
  }
  target.woken_explicitly = true;
  target.wake_was_recovery = recovery_wake;
  trace(trace::EventKind::kWake,
        target.stack.empty() ? target.home : target.stack.back().comp,
        recovery_wake ? 1 : 0, 0, static_cast<std::int64_t>(target_id));
  SimThread* self = self_if_running();
  // Recovery (T0) wakes never preempt the waker: the waker is the recovery
  // sweep itself, and switching away here would run its stale-frame check on
  // resume — unwinding the sweep mid-way and silently dropping the remaining
  // wakes, which (unlike descriptor state) are one-shot and never redone.
  // Preemption is deferred to the waker's next scheduling point instead.
  if (self != nullptr && !recovery_wake) {
    // Immediate preemption when the target outranks us. Under an exploration
    // policy every wakeup is additionally a full scheduling point: the policy
    // may hand the CPU to any same-priority ready thread here. The caller is
    // made ready first and marked the incumbent so the default pick keeps it
    // running — identical behavior to the uninstrumented kernel.
    if (target.prio < self->prio || (schedule_policy_ != nullptr && !shutdown_)) {
      sched_incumbent_ = self->id;
      make_ready_locked(*self);
      make_ready_locked(target);
      reschedule_and_wait_locked(lock, *self);
      lock.unlock();
      // A component on our invocation stack may have been micro-rebooted
      // while we were switched out; unwind stale frames if so.
      check_stack_epochs(*self);
      return true;
    }
  }
  make_ready_locked(target);
  // cores>1: the woken thread may run immediately on an idle core — this is
  // how a recovery wake issued on core A reaches a blocked thread on core B.
  kick_idle_cores_locked();
  return true;
}

// ---------------------------------------------------------------------------
// Kernel: invocation
// ---------------------------------------------------------------------------

InvokeResult Kernel::invoke(CompId client, CompId server, const std::string& fn,
                            const Args& args, int expected_epoch) {
  SG_ASSERT_MSG(cap_ok(client, server),
                "capability fault: comp " + std::to_string(client) + " -> " +
                    std::to_string(server) + " (" + fn + ")");
  // Epoch fence, part 1: remember which incarnation of the server this call
  // was made against. The caller translated its arguments (descriptor sids)
  // before entering; if the server micro-reboots between here and dispatch —
  // an injected crash at this very boundary, or a fault landing while we sit
  // preempted or held at the admission gate — those arguments belong to the
  // dead incarnation. Stable sid recycling means such a call can silently
  // alias a half-recovered object (e.g. grab a recreated lock out from under
  // the recovery walk re-acquiring it for the pre-fault owner).
  // At cores>1 a reboot on another core can land between the caller's
  // translation and this entry, so callers that know the epoch they
  // translated against pass it in.
  const int entry_epoch = expected_epoch >= 0 ? expected_epoch : fault_epoch(server);
  // Crash-point number of this entry + 1, or 0 when no policy was consulted.
  // Stamped into the kInvokeEnter event's d slot so the explorer can map each
  // dispatched invocation back to its crash choice point and derive the
  // commuting-invoke independence relation (docs/EXPLORER.md).
  std::int64_t crash_point_stamp = 0;
  if (schedule_policy_ != nullptr && self_if_running() != nullptr && !shutdown_) {
    // Crash choice point: the policy may fell any component right here, as if
    // an asynchronous fail-stop fault landed at this invocation boundary.
    // crash_choices_ mirrors the policy's own per-call counter: both advance
    // exactly once per consultation, so the numbering agrees.
    crash_point_stamp = static_cast<std::int64_t>(++crash_choices_);
    const CompId victim = schedule_policy_->crash_point(client, server);
    if (victim != kNoComp) {
      trace(trace::EventKind::kSchedCrash, victim, 0, 0, static_cast<std::int64_t>(server));
      inject_crash(victim);
    }
  }
  if (!admission_gate(server)) return {0, true};  // Rebooted while we were held.
  SimThread* self = nullptr;
  bool preempted = false;
  {
    std::unique_lock<std::mutex> lock(mtx_);
    auto comp_it = components_.find(server);
    SG_ASSERT_MSG(comp_it != components_.end(), "invoke of unknown component");
    ++invocation_count_;
    clock_.advance(tick_per_invocation_);
    if (SimThread* s = self_if_running()) {
      self = s;
      wake_expired_timers_locked();
      kick_idle_cores_locked();  // Newly-ready timer threads may fit idle cores.
      if (schedule_policy_ != nullptr && !shutdown_) {
        // Under an exploration policy every invocation entry is a full
        // scheduling point; the incumbent rule keeps the default pick
        // identical to the plain preemption check below.
        sched_incumbent_ = tls_self;
        make_ready_locked(*self);
        reschedule_and_wait_locked(lock, *self);
        preempted = true;
      } else {
        // Timer-driven preemption point: a newly-woken higher-priority thread
        // (e.g., the SWIFI injector) runs before this invocation proceeds.
        ThreadId best = kNoThread;
        for (const auto& tp : threads_) {
          if (tp->state == ThreadState::kReady &&
              (best == kNoThread || tp->prio < thd(best).prio)) {
            best = tp->id;
          }
        }
        if (best != kNoThread && thd(best).prio < self->prio) {
          make_ready_locked(*self);
          reschedule_and_wait_locked(lock, *self);
          preempted = true;
        }
      }
    }
  }
  if (self != nullptr) {
    // While preempted, another thread may have crashed/rebooted a component
    // we are executing inside of; unwind stale frames before going deeper.
    if (preempted) check_stack_epochs(*self);
    std::unique_lock<std::mutex> lock(mtx_);
    // cores>1: hand our running occupancy from the current component to the
    // server, waiting (core released, no hold-and-wait) if another core is
    // executing inside it. Re-entrant same-component calls skip the handoff.
    // `handed_off` is a separate flag because `from` is legitimately kNoComp
    // for raw kernel threads (no home component): keying the undo below on
    // `handed_off_from != kNoComp` would skip the server release for them and
    // leak the occupancy slot -- a permanent machine deadlock the next time a
    // recovery tries to quiesce the component.
    bool handed_off = false;
    CompId handed_off_from = kNoComp;
    if (ncores_ > 1 && !shutdown_) {
      const CompId from = top_or_home_locked(*self);
      if (from != server) {
        occ_release_locked(from, self->id);
        occ_wait_acquire_locked(lock, *self, server);
        // The containment gate is checked when the dispatcher picks us, so a
        // fault recorded between that pick and this resume slips past it:
        // we now hold occupancy of a component that is closed for its
        // reboot. Requeue until it reopens; the epoch fence below then
        // converts the entry into a clean redo.
        while (fault_pending_.count(server) != 0 && !shutdown_ &&
               !recovery_authority_locked(server, self->id)) {
          occ_release_locked(server, self->id);
          occ_wait_acquire_locked(lock, *self, server);
        }
        handed_off = true;
        handed_off_from = from;
      }
    }
    // Epoch fence, part 2: the server was rebooted after this call entered
    // but before it dispatched. The fault overlapped the call, so report it
    // exactly like a fault during the handler: the stub redoes the call
    // through recovery with freshly translated arguments.
    if (fault_epochs_.at(server) != entry_epoch) {
      if (handed_off) {
        // Undo the handoff: give the server back and retake our old slot
        // (a no-op retake when the caller has no home component).
        occ_release_locked(server, self->id);
        occ_wait_acquire_locked(lock, *self, handed_off_from);
      }
      return {0, true};
    }
    self->stack.push_back({server, fault_epochs_.at(server)});
    // Traced inside the same critical section as the epoch fence so the
    // event order agrees with the admission decision: an enter sequenced
    // after a kFault really did queue behind the containment gate. At
    // cores=1 there is no concurrent tracer, so the stream is unchanged.
    trace(trace::EventKind::kInvokeEnter, server, 0, 0, static_cast<std::int64_t>(client),
          crash_point_stamp);
  }
  Component& srv = component(server);
  CallCtx ctx{*this, self != nullptr ? self->id : kNoThread, client, server};
  if (self == nullptr) {
    // Raw kernel-thread entry: no simulated thread, so no crash choice point
    // was consulted (stamp stays 0).
    trace(trace::EventKind::kInvokeEnter, server, 0, 0, static_cast<std::int64_t>(client),
          crash_point_stamp);
  }
  // Status values match kInvokeReturn's schema: 0=ok, 1=fault, 2=unwound.
  // Returns true if handing occupancy back to the caller's frame had to wait.
  auto pop_frame = [&](std::int32_t status) {
    trace(trace::EventKind::kInvokeReturn, server, status);
    bool waited = false;
    if (self != nullptr) {
      std::unique_lock<std::mutex> lock(mtx_);
      SG_ASSERT(!self->stack.empty() && self->stack.back().comp == server);
      self->stack.pop_back();
      if (ncores_ > 1 && !shutdown_) {
        // Hand occupancy back from the popped server to the caller's frame.
        const CompId to = top_or_home_locked(*self);
        if (to != server) {
          occ_release_locked(server, self->id);
          waited = occ_wait_acquire_locked(lock, *self, to);
        }
      }
    }
    return waited;
  };
  Value ret = 0;
  try {
    ret = srv.dispatch(ctx, fn, args);
  } catch (const ComponentFault& fault) {
    pop_frame(1);
    if (fault.comp() != server) throw;  // Inner frames handle their own comps.
    // Fail-stop: vector to the supervisor/booter for a micro-reboot, then
    // surface the fault flag to the client stub (Fig 4 redo loop).
    SG_DEBUG("kernel", "fault in comp " << server << " (" << fault.what() << "); vectoring");
    vector_fault(server);
    return {0, true};
  } catch (const ServerRebooted& rebooted) {
    pop_frame(2);
    if (rebooted.target() == server) return {0, true};
    throw;  // Keep unwinding to the stub below the outermost stale frame.
  } catch (...) {
    // QuarantinedError from a nested admission gate, SystemCrash, shutdown:
    // keep the invocation stack balanced while these unwind server frames.
    pop_frame(2);
    throw;
  }
  const bool waited = pop_frame(0);
  {
    std::lock_guard<std::mutex> lock(mtx_);
    ++completions_[server];
  }
  // cores>1: the wait to re-enter the caller's component is a scheduling
  // point, and that component may have been micro-rebooted meanwhile (the
  // wait also covers its fault-pending closure). Unwind the now-stale caller
  // handler as at any other scheduling point instead of letting it run on
  // against the rebooted state: a lock take woken just before its lock
  // component's reboot would otherwise re-acquire the recreated lock from a
  // dead incarnation's frame, under the recovery walk that re-acquires it
  // for the pre-fault owner, and both threads would wait forever.
  if (waited) check_stack_epochs(*self);
  return {ret, false};
}

InvokeResult Kernel::upcall(CompId from, CompId into, const std::string& fn, const Args& args) {
  return invoke(from, into, fn, args);
}

void Kernel::do_micro_reboot(Component& comp) {
  // Micro-reboot cost: restore the component's image with a memcpy (§II-C).
  static thread_local std::vector<unsigned char> image;
  static thread_local std::vector<unsigned char> live;
  image.assign(comp.image_bytes(), 0xA5);
  live.resize(comp.image_bytes());
  std::memcpy(live.data(), image.data(), comp.image_bytes());
  comp.reset_state();
  CallCtx ctx{*this, tls_self, kNoComp, comp.id()};
  comp.on_reboot(ctx);
}

void Kernel::set_schedule_policy(SchedulePolicy* policy) {
  std::lock_guard<std::mutex> lock(mtx_);
  SG_ASSERT_MSG(policy == nullptr || ncores_ == 1,
                "schedule exploration requires cores=1 (deterministic replay)");
  schedule_policy_ = policy;
  policy_steps_ = 0;
  policy_choices_ = 0;
  crash_choices_ = 0;
  sched_incumbent_ = kNoThread;
}

void Kernel::inject_crash(CompId comp_id) {
  if (is_quarantined(comp_id)) return;  // Already out of service.
  vector_fault(comp_id);
}

void Kernel::vector_fault(CompId comp_id) {
  // Acquire the recovery domain over the fault's dependency closure. The
  // component is closed (fault_pending_) in the same critical section that
  // claims the domain and records kFault: any invocation traced after kFault
  // queued behind the gate, so nothing enters a detected-faulty component
  // before its reboot (invariant 1, fault containment). Single-runner
  // kernels get this for free -- the recovery runs to completion on the
  // faulting thread. At cores>1 a fault whose closure overlaps an active
  // domain waits here (releasing its core, holding nothing) while faults in
  // disjoint closures recover concurrently and application threads in
  // healthy components keep running.
  DomainLock recovery(*this, comp_id, /*record_fault=*/true);
  try {
    if (fault_supervisor_) {
      fault_supervisor_(comp_id);
    } else {
      perform_micro_reboot(comp_id);
    }
  } catch (const ComponentFault& nested) {
    throw SystemCrash(CrashKind::kDoubleFault, nested.comp(),
                      std::string("fault during recovery: ") + nested.what());
  }
  {
    // Backstop: reboot and quarantine reopen the component themselves; a
    // policy that resolved the fault some other way must not leave it
    // closed forever.
    std::lock_guard<std::mutex> lock(mtx_);
    clear_fault_pending_locked(comp_id);
  }
}

void Kernel::perform_micro_reboot(CompId comp_id) {
  // Re-entrant when vectored through vector_fault or a supervisor sweep: the
  // closure is already covered by the caller's domain (or its machine grant).
  DomainLock recovery(*this, comp_id);
  Component& comp = component(comp_id);
  int epoch = 0;
  bool seized = false;
  ThreadId seize_owner = kRootOwner;
  {
    std::unique_lock<std::mutex> lock(mtx_);
    epoch = ++fault_epochs_[comp_id];
    ++total_reboots_;
    if (ncores_ > 1 && !shutdown_ && running_) {
      // Quiesce: seize the component's occupancy so no other core executes
      // inside it during the image restore. The epoch bump above already
      // unwinds current occupants at their next scheduling point. Released
      // before the reboot hooks run: T0 walks may block (e.g. re-acquiring a
      // contended lock), and clients must be able to interleave then exactly
      // as they do at cores=1.
      if (SimThread* self = self_if_running()) {
        seize_owner = self->id;
        occ_wait_acquire_locked(lock, *self, comp_id);
      } else {
        root_cv_.wait(lock, [&] { return occ_free_locked(comp_id, kRootOwner) || shutdown_; });
        occ_acquire_locked(comp_id, kRootOwner);
      }
      seized = !shutdown_;
    }
  }
  trace(trace::EventKind::kMicroReboot, comp_id, epoch);
  if (micro_reboot_) {
    micro_reboot_(comp);
  } else {
    do_micro_reboot(comp);
  }
  {
    // Reopen the containment gate together with the quiesce seize: the
    // reboot is traced, the epoch is bumped, and queued entries re-fence
    // into a clean redo.
    std::lock_guard<std::mutex> lock(mtx_);
    clear_fault_pending_locked(comp_id);
    if (seized) occ_release_locked(comp_id, seize_owner);
  }
  for (const auto& hook : reboot_hooks_) hook(comp_id);
}

void Kernel::quarantine(CompId comp_id) {
  std::vector<ThreadId> blocked;
  {
    std::lock_guard<std::mutex> lock(mtx_);
    if (!quarantined_.insert(comp_id).second) return;
    // Invalidate every invocation frame inside the dead component so blocked
    // threads unwind (ServerRebooted) instead of sleeping forever, and erase
    // any pending backoff hold: the gate now fails fast instead of waiting.
    ++fault_epochs_[comp_id];
    hold_until_.erase(comp_id);
    clear_fault_pending_locked(comp_id);  // Quarantine resolves the fault.
    for (const auto& tp : threads_) {
      if (tp->state != ThreadState::kBlocked && tp->state != ThreadState::kTimedBlocked) continue;
      for (const auto& frame : tp->stack) {
        if (frame.comp == comp_id) {
          blocked.push_back(tp->id);
          break;
        }
      }
    }
  }
  trace(trace::EventKind::kQuarantine, comp_id);
  for (const ThreadId thd_id : blocked) wakeup(thd_id, /*recovery_wake=*/true);
}

void Kernel::readmit(CompId comp_id) {
  {
    std::lock_guard<std::mutex> lock(mtx_);
    if (quarantined_.erase(comp_id) == 0) {
      hold_until_.erase(comp_id);
      return;
    }
    hold_until_.erase(comp_id);
  }
  trace(trace::EventKind::kReadmit, comp_id);
}

bool Kernel::is_quarantined(CompId comp_id) const {
  std::lock_guard<std::mutex> lock(mtx_);
  return quarantined_.count(comp_id) != 0;
}

void Kernel::hold_component(CompId comp_id, VirtualTime until) {
  {
    std::lock_guard<std::mutex> lock(mtx_);
    VirtualTime& slot = hold_until_[comp_id];
    slot = std::max(slot, until);
  }
  trace(trace::EventKind::kHold, comp_id, 0, 0, static_cast<std::int64_t>(until));
}

VirtualTime Kernel::held_until(CompId comp_id) const {
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = hold_until_.find(comp_id);
  return it == hold_until_.end() ? 0 : it->second;
}

bool Kernel::admission_gate(CompId server) {
  SimThread* self_ptr = self_if_running();
  if (self_ptr == nullptr) {
    // Root/boot context cannot park on the virtual clock; it only honours the
    // fail-fast quarantine check.
    std::lock_guard<std::mutex> lock(mtx_);
    if (quarantined_.count(server) != 0) throw QuarantinedError(server);
    return true;
  }
  SimThread& self = *self_ptr;
  int epoch_at_entry = 0;
  bool first_pass = true;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mtx_);
      if (quarantined_.count(server) != 0) throw QuarantinedError(server);
      if (first_pass) {
        first_pass = false;
        epoch_at_entry = fault_epochs_.at(server);
      }
      auto it = hold_until_.find(server);
      const VirtualTime until = it == hold_until_.end() ? 0 : it->second;
      // If the server rebooted again while we were parked here, our caller's
      // view of it is stale (no ServerRebooted reached us: the server frame
      // is not on our stack yet). Refuse admission so the stub recovers.
      if (until <= clock_.now()) return fault_epochs_.at(server) == epoch_at_entry;
      // Park until the supervisor's backoff expires WITHOUT consuming
      // wakeups: a banked or genuine wakeup delivered while waiting here
      // belongs to the blocking call the client is about to redo, so it is
      // re-banked (exactly-once wakeup semantics survive the hold).
      const bool saved_bank = self.banked_wakeup;
      self.banked_wakeup = false;
      self.state = ThreadState::kTimedBlocked;
      self.deadline = until;
      self.woken_explicitly = false;
      self.wake_was_recovery = false;
      reschedule_and_wait_locked(lock, self);
      if (saved_bank || (self.woken_explicitly && !self.wake_was_recovery)) {
        self.banked_wakeup = true;
      }
    }
    // Components on our stack may have rebooted while we waited out the hold.
    check_stack_epochs(self);
  }
}

std::uint64_t Kernel::completions_of(CompId comp) const {
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = completions_.find(comp);
  return it == completions_.end() ? 0 : it->second;
}

std::vector<Kernel::BlockedThreadInfo> Kernel::reflect_blocked_threads() const {
  std::lock_guard<std::mutex> lock(mtx_);
  std::vector<BlockedThreadInfo> infos;
  for (const auto& tp : threads_) {
    const SimThread& t = *tp;
    if (t.state != ThreadState::kBlocked && t.state != ThreadState::kTimedBlocked) continue;
    infos.push_back({t.id, t.prio, t.stack.empty() ? t.home : t.stack.back().comp,
                     t.state == ThreadState::kTimedBlocked, t.deadline});
  }
  return infos;
}

}  // namespace sg::kernel
