#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kernel/clock.hpp"
#include "kernel/component.hpp"
#include "kernel/fault.hpp"
#include "kernel/registers.hpp"
#include "kernel/types.hpp"
#include "trace/trace.hpp"

namespace sg::kernel {

/// Result of a mediated component invocation, mirroring the C3 stub template
/// (Fig 4 of the paper): the return word plus a fault flag that the client
/// stub inspects to drive CSTUB_FAULT_UPDATE and the redo loop.
struct InvokeResult {
  Value ret = 0;
  bool fault = false;
};

/// Lifecycle state of a simulated thread.
enum class ThreadState { kEmbryo, kReady, kRunning, kBlocked, kTimedBlocked, kExited };

/// Hook the recovery layer installs so the booter can run eager (T0) recovery
/// right after a component is micro-rebooted. Runs in the context of the
/// thread that hit the fault.
using RebootHook = std::function<void(CompId rebooted)>;

/// Exploration hook (src/explore): turns the kernel's serialization points
/// into numbered *choice points* a bounded model checker can steer. While a
/// policy is installed, every scheduling decision with two or more ready
/// candidates consults pick(), and every invocation entry from a simulated
/// thread consults crash_point(); additionally every wakeup and invocation
/// entry becomes a full scheduling point, so same-priority interleavings are
/// reachable. When no policy is set the scheduler short-circuits to the
/// default priority-FIFO pick with no added work.
class SchedulePolicy {
 public:
  struct Candidate {
    ThreadId thd = kNoThread;
    Priority prio = 0;
    /// Component the thread currently occupies (innermost stack frame, or its
    /// home component when idle). Commutation metadata for the explorer's
    /// partial-order reduction: two candidates in disjoint components are
    /// *potentially* independent (docs/EXPLORER.md).
    CompId comp = kNoComp;
  };

  virtual ~SchedulePolicy() = default;

  /// One scheduling choice point. `candidates` holds the ready threads of
  /// the *top priority tier only* (a strict-priority kernel never runs a
  /// lower-priority thread over a ready higher-priority one; the FIFO
  /// tie-break among equals is the only genuine freedom), in the kernel's
  /// default order — with the previously running thread winning ties at
  /// voluntary scheduling points — so index 0 is what an uninstrumented
  /// kernel would run. Only consulted with >= 2 candidates. Returns the
  /// index to dispatch (out-of-range values fall back to 0). Called with the
  /// kernel lock held: the policy must not call back into the kernel.
  virtual std::size_t pick(const std::vector<Candidate>& candidates) = 0;

  /// One crash choice point: consulted at every invocation entry from a
  /// simulated thread, before the admission gate. Returning a component id
  /// injects a fail-stop crash of that component here (kNoComp: none).
  /// Called without the kernel lock, on the invoking thread.
  virtual CompId crash_point(CompId client, CompId server) {
    (void)client;
    (void)server;
    return kNoComp;
  }
};

/// The simulated COMPOSITE kernel: threads, priority dispatch, virtual time,
/// capability-mediated synchronous invocations (thread migration), fail-stop
/// fault vectoring to the booter, and reflection over kernel state.
///
/// Concurrency model (docs/KERNEL.md): each simulated thread is a host
/// std::thread. With cores() == 1 (the default) a per-thread handoff signal
/// guarantees exactly one simulated thread runs at any instant (single-core,
/// like the paper's evaluation), so component state needs no locking and the
/// schedule is deterministic. With cores() > 1 up to N simulated threads run
/// genuinely in parallel, one per simulated core; a per-component occupancy
/// map serializes threads *running* inside the same component (matching the
/// single-core guarantee that handler code between scheduling points is never
/// interleaved), while threads in independent components proceed
/// concurrently. Recovery (fault vectoring, micro-reboots, supervisor
/// policy) is scoped to per-fault *recovery domains* — the dependency
/// closure of the faulting component — so faults in disjoint closures are
/// contained and micro-rebooted concurrently on different cores while
/// components outside every active domain keep serving. Overlapping
/// closures, group reboots, quarantines and storage rebuilds escalate to a
/// whole-machine acquisition (the pre-domain global token semantics).
class Kernel {
 public:
  Kernel();
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- components -----------------------------------------------------------
  CompId register_component(Component* comp);  ///< Called by Component's ctor.
  void unregister_component(CompId id);        ///< Called by Component's dtor.
  Component& component(CompId id) const;
  Component* find_component(const std::string& name) const;
  std::vector<CompId> component_ids() const;

  /// Per-component fault epoch: incremented on every micro-reboot. Client
  /// stubs snapshot and compare it (CSTUB_FAULT_UPDATE).
  int fault_epoch(CompId id) const;

  // --- capabilities ---------------------------------------------------------
  /// When false (default true), every invocation edge must have been granted.
  void set_default_allow(bool allow) { default_allow_ = allow; }
  void grant_cap(CompId client, CompId server);
  bool cap_ok(CompId client, CompId server) const;

  // --- threads and dispatch -------------------------------------------------
  ThreadId thd_create(const std::string& name, Priority prio, std::function<void()> entry,
                      CompId home = kNoComp);

  /// Runs the simulation: dispatches the highest-priority ready thread and
  /// returns when every thread has exited. Rethrows a recorded SystemCrash.
  void run();

  /// Requests an orderly shutdown: each thread unwinds (via ShutdownSignal)
  /// the next time it would be scheduled. Callable from a simulated thread.
  void shutdown();
  bool shutting_down() const { return shutdown_; }

  // --- simulated cores --------------------------------------------------------
  /// Sets the number of simulated cores (default 1). Must be called before
  /// run(). cores=1 preserves the single-runner semantics bit-for-bit;
  /// cores>1 runs threads in independent components genuinely in parallel.
  /// Existing threads are re-assigned round-robin affinities.
  void set_cores(int n);
  int cores() const { return ncores_; }
  bool is_running() const { return running_; }

  /// Per-core dispatch accounting: how many dispatches this core performed
  /// and how many of those stole a thread whose affinity was another core.
  struct CoreStats {
    std::uint64_t dispatches = 0;
    std::uint64_t steals = 0;
  };
  std::vector<CoreStats> core_stats() const;

  /// High-water mark of simultaneously running simulated threads (1 at
  /// cores=1; up to cores() under genuine parallelism). Benchmarks and the
  /// concurrent test suite use this to prove parallel execution happened.
  int max_concurrent_running() const;

  /// The whole-machine recovery token. Acquiring it waits for every active
  /// recovery domain to drain and then excludes new domains until release —
  /// the escalation target for cross-domain operations (supervisor readmit,
  /// group reboots crossing domains, storage rebuilds). Re-entrant. At
  /// cores=1 it is a no-op: the single-runner handoff already serializes.
  void acquire_recovery_token();
  void release_recovery_token();
  class RecoveryLock {
   public:
    explicit RecoveryLock(Kernel& k) : k_(k) { k_.acquire_recovery_token(); }
    ~RecoveryLock() { k_.release_recovery_token(); }
    RecoveryLock(const RecoveryLock&) = delete;
    RecoveryLock& operator=(const RecoveryLock&) = delete;

   private:
    Kernel& k_;
  };

  /// True when the calling context may touch recovery-policy state: either
  /// cores()==1 (globally serialized) or the caller holds an active recovery
  /// domain (scoped or machine-wide). Supervisor membership checks
  /// (dependents_of, group reboots) assert this instead of silently relying
  /// on global serialization.
  bool recovery_token_held_by_caller() const;

  // --- recovery domains (cores>1) ---------------------------------------------
  /// Maps a faulted component to the component set its recovery may touch
  /// (its D0/D1 dependency closure, the same set the supervisor's
  /// dependents_of yields). The faulted component itself is always included
  /// even if the resolver omits it. Unset: each fault's domain is just the
  /// faulted component. Called without the kernel lock; must not call back
  /// into the kernel.
  using DomainResolver = std::function<std::vector<CompId>(CompId)>;
  void set_domain_resolver(DomainResolver resolver);

  /// Acquires the recovery domain covering `faulted` — an all-or-nothing
  /// claim of its dependency closure (no hold-and-wait, hence no deadlock).
  /// A closure overlapping an active domain escalates to a machine-wide
  /// acquisition. Re-entrant per owner. With record_fault the
  /// fault_pending_ insertion and the kFault trace happen atomically with
  /// the claim. At cores=1: records the fault (if asked) and returns.
  void acquire_recovery_domain(CompId faulted, bool record_fault = false);
  void release_recovery_domain();
  class DomainLock {
   public:
    DomainLock(Kernel& k, CompId comp, bool record_fault = false) : k_(k) {
      k_.acquire_recovery_domain(comp, record_fault);
    }
    ~DomainLock() { k_.release_recovery_domain(); }
    DomainLock(const DomainLock&) = delete;
    DomainLock& operator=(const DomainLock&) = delete;

   private:
    Kernel& k_;
  };

  /// kDomainEscalate reason codes (the event's `a` payload).
  enum : std::int32_t {
    kEscalateOverlap = 0,       ///< Fresh fault's closure overlaps an active domain.
    kEscalateGroupReboot = 1,   ///< Supervisor group reboot.
    kEscalateQuarantine = 2,    ///< Supervisor quarantine.
    kEscalateNestedFault = 3,   ///< Nested fault outside the held closure.
    kEscalateToken = 4,         ///< Machine token taken mid-recovery.
    kEscalateStorageRebuild = 5 ///< Coordinator G0 storage rebuild.
  };

  /// Escalates the calling context's active recovery domain to the whole
  /// machine (supervisor group reboot / quarantine, coordinator storage
  /// rebuild). Blocks until every other active domain drains or is itself
  /// waiting to escalate (lowest acquisition seq wins, so the wait is
  /// deadlock-free). Re-entrant; a no-op at cores=1 or when the caller
  /// already holds the machine.
  void escalate_recovery_to_machine(std::int32_t reason = kEscalateToken);

  /// Trace-proven high-water mark of simultaneously active recovery domains
  /// (mirrors max_concurrent_running): 1 whenever any fault was vectored at
  /// cores=1; >= 2 proves overlapping micro-reboots happened at cores>1.
  int max_concurrent_recoveries() const;

  /// Stable key identifying the calling recovery context, for layers that
  /// keep per-recovery re-entrancy state (supervisor depth, coordinator
  /// pending queues). Constant (0) at cores=1 so single-core bookkeeping is
  /// bit-for-bit the pre-domain global state.
  std::int64_t recovery_owner_key() const;

  ThreadId current_thread() const;
  ThreadState thread_state(ThreadId thd) const;
  Priority thread_priority(ThreadId thd) const;
  void set_thread_priority(ThreadId thd, Priority prio);
  RegisterFile& thread_registers(ThreadId thd);
  const std::string& thread_name(ThreadId thd) const;
  std::vector<ThreadId> thread_ids() const;

  /// Component at the top of a thread's invocation stack (where it is
  /// executing or blocked), or its home component.
  CompId thread_executing_in(ThreadId thd) const;

  /// The thread's full invocation stack (outermost first), for SWIFI targeting
  /// and scheduler reflection.
  std::vector<CompId> thread_invocation_stack(ThreadId thd) const;

  // --- scheduling primitives (used by the scheduler component) ---------------
  void yield();

  /// Blocks the calling thread until another thread wakes it. If a component
  /// on this thread's invocation stack is micro-rebooted while it is blocked,
  /// throws ServerRebooted on wakeup so stale server frames unwind.
  /// Returns true if a *genuine* (non-recovery) wakeup was consumed.
  bool block_current();

  /// Re-latches a consumed wakeup on `thd`. Servers call this when a fault
  /// unwinds a handler *after* its block consumed a genuine wakeup, so the
  /// client's redo does not sleep forever on a wakeup that already happened.
  void bank_wakeup(ThreadId thd);

  /// Parks the calling thread for `dur` virtual µs WITHOUT consuming a banked
  /// wakeup (one delivered while parked is re-banked). A polite spin-wait
  /// step for conditions that another — possibly lower-priority — thread must
  /// establish: unlike yield(), parking lets that thread run. Unwinds with
  /// ServerRebooted if a component on the caller's stack rebooted meanwhile.
  void park_tick(VirtualTime dur = 1);

  /// Blocks until woken or until virtual time reaches `deadline`.
  /// Returns true if woken explicitly, false on timeout.
  bool block_current_until(VirtualTime deadline);

  /// Makes `thd` runnable; preempts the caller if `thd` has higher priority.
  /// Returns false if the thread was not blocked.
  ///
  /// `recovery_wake` marks T0 eager-recovery wakeups: they are *spurious* by
  /// design (the woken thread unwinds and re-blocks), so they are never
  /// banked. A genuine wakeup consumed just before a micro-reboot is banked
  /// on the thread and re-delivered at its next block, preserving
  /// exactly-once wakeup semantics across the stub's redo.
  bool wakeup(ThreadId thd, bool recovery_wake = false);

  // --- virtual time -----------------------------------------------------------
  /// The kernel's event-driven time source. Everything time-keyed (cmon
  /// stale windows, supervisor backoff, timer_mgr deadlines, SWIFI injection
  /// delays) reads this clock rather than any wall-clock source.
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }
  VirtualTime now() const { return clock_.now(); }
  /// Virtual microseconds charged per component invocation (default 1).
  void set_tick_per_invocation(VirtualTime tick) { tick_per_invocation_ = tick; }

  // --- invocation -------------------------------------------------------------
  /// Synchronous, capability-mediated invocation of `fn` exported by `server`.
  /// The handler runs on the calling thread (thread migration). A fail-stop
  /// ComponentFault in the server vectors to the booter (micro-reboot + epoch
  /// bump + reboot hooks) and surfaces as {0, fault=true} to the caller.
  /// `expected_epoch` (>= 0) is the server epoch the caller translated its
  /// arguments against; the call is refused as a fault if the server was
  /// micro-rebooted since. By default the epoch at entry is used.
  InvokeResult invoke(CompId client, CompId server, const std::string& fn, const Args& args,
                      int expected_epoch = -1);

  /// Upcall from a server into a client component (U0 mechanism). Mediated
  /// like invoke but flows "downhill"; faults surface the same way.
  InvokeResult upcall(CompId from, CompId into, const std::string& fn, const Args& args);

  // --- fault handling ----------------------------------------------------------
  /// Installs the booter callback that performs the micro-reboot (memcpy +
  /// reset_state + on_reboot). The default performs those steps directly.
  void set_micro_reboot(std::function<void(Component&)> reboot) { micro_reboot_ = std::move(reboot); }

  /// Recovery-layer hook run after every micro-reboot (eager/T0 recovery).
  void add_reboot_hook(RebootHook hook) { reboot_hooks_.push_back(std::move(hook)); }
  void clear_reboot_hooks() { reboot_hooks_.clear(); }

  // --- exploration (src/explore) ----------------------------------------------
  /// Installs (nullptr: clears) the schedule/crash-point exploration policy.
  /// Not owned; must outlive the installed window. Resets the step budget.
  void set_schedule_policy(SchedulePolicy* policy);
  SchedulePolicy* schedule_policy() const { return schedule_policy_; }

  /// Scheduling decisions allowed before a policy-driven run is declared
  /// livelocked (surfaces as SystemCrash kHang). Only counts while a policy
  /// is installed.
  void set_policy_step_limit(std::uint64_t limit) { policy_step_limit_ = limit; }

  /// Recovery *policy* layer (sg::supervisor): when installed, every fail-stop
  /// fault is vectored here instead of straight to perform_micro_reboot, so
  /// the supervisor can apply crash-loop budgets, group reboots, backoff and
  /// quarantine. The supervisor calls back into perform_micro_reboot for the
  /// raw mechanism.
  using FaultVector = std::function<void(CompId faulted)>;
  void set_fault_supervisor(FaultVector vector) { fault_supervisor_ = std::move(vector); }

  /// The raw micro-reboot mechanism: fault-epoch bump, booter image restore,
  /// then the recovery-layer reboot hooks. Called by the kernel itself when no
  /// supervisor is installed, and by the supervisor per rebooted component.
  void perform_micro_reboot(CompId comp);

  /// Forces a fail-stop fault in `comp` as if a thread crashed inside it:
  /// vectors to the supervisor (or micro-reboots directly). Used by tests,
  /// the latent-fault monitor and the macro benchmark. A no-op for a
  /// quarantined component (it is already out of service).
  void inject_crash(CompId comp);

  // --- admission control (driven by the recovery supervisor) -------------------
  /// Marks `comp` out of service: its fault epoch is bumped, threads blocked
  /// inside it are unwound (as after a micro-reboot), and every subsequent
  /// invocation of it throws QuarantinedError until readmit().
  void quarantine(CompId comp);
  void readmit(CompId comp);
  bool is_quarantined(CompId comp) const;

  /// Holds client invocations of `comp` at the admission gate until virtual
  /// time `until` (the supervisor's reboot backoff). Callers park on the
  /// virtual clock; genuine wakeups delivered meanwhile are re-banked so
  /// exactly-once wakeup semantics survive the wait.
  void hold_component(CompId comp, VirtualTime until);
  VirtualTime held_until(CompId comp) const;

  // --- tracing ----------------------------------------------------------------
  /// The system-wide event log. Every layer (c3 stubs, supervisor, cmon)
  /// records through the kernel so events share one sequence and one clock.
  trace::Tracer& tracer() { return tracer_; }
  const trace::Tracer& tracer() const { return tracer_; }

  /// Records an event tagged with the current simulated thread and virtual
  /// time. When tracing is disabled this is one relaxed load and a branch.
  void trace(trace::EventKind kind, CompId comp, std::int32_t a = 0, std::int32_t b = 0,
             std::int64_t c = 0, std::int64_t d = 0) {
    if (tracer_.enabled()) trace_impl(kind, comp, a, b, c, d);
  }

  /// Total number of micro-reboots performed.
  int total_reboots() const { return total_reboots_; }

  /// Count of invocations mediated since construction (used to charge time
  /// and by benchmarks).
  std::uint64_t invocation_count() const { return invocation_count_; }

  /// Invocations of `comp` that ran to completion (returned without fault).
  /// A latent-fault monitor compares successive snapshots: a component that
  /// is occupied but whose completion count stagnates is looping (C'MON).
  std::uint64_t completions_of(CompId comp) const;

  // --- kernel reflection (used by scheduler-component recovery) ----------------
  /// Threads currently blocked (plain or timed), with the component they are
  /// blocked in. This is the authoritative state the scheduler component
  /// reflects on after a micro-reboot (§II-F).
  struct BlockedThreadInfo {
    ThreadId thd;
    Priority prio;
    CompId blocked_in;
    bool timed;
    VirtualTime deadline;  ///< Meaningful only when timed.
  };
  std::vector<BlockedThreadInfo> reflect_blocked_threads() const;

 private:
  struct SimThread {
    ThreadId id = kNoThread;
    std::string name;
    Priority prio = 0;
    ThreadState state = ThreadState::kEmbryo;
    CompId home = kNoComp;
    std::function<void()> entry;
    RegisterFile regs;
    /// Invocation stack entries: component + its fault epoch at entry.
    struct Frame {
      CompId comp;
      int epoch_at_entry;
    };
    std::vector<Frame> stack;
    VirtualTime deadline = 0;    ///< For kTimedBlocked.
    bool woken_explicitly = false;
    bool wake_was_recovery = false;  ///< The last wakeup was a T0 recovery wake.
    bool banked_wakeup = false;      ///< A genuine wakeup survived an unwound block.
    std::uint64_t ready_seq = 0;  ///< FIFO order within a priority level.
    int affinity = 0;             ///< Preferred core (round-robin at creation).
    int running_on = -1;          ///< Core currently dispatched on, -1 if none.
    /// Component this thread is blocked waiting to *occupy* (cores>1 invoke
    /// handoff / reboot seize); the dispatcher acquires it on our behalf.
    CompId occ_wait = kNoComp;
    bool token_wait = false;  ///< Blocked waiting for the recovery token.
    /// The handoff signal: notified when dispatch_core_locked puts this
    /// thread into kRunning (and when shutdown wakes everyone). Only this
    /// thread's host waits on it, so a switch wakes one host thread.
    std::condition_variable wake;
    std::thread host;
  };

  /// One simulated core: the dispatch slot plus stealing accounting. All
  /// fields are protected by mtx_ (the scheduler lock is global and
  /// short-hold; parallelism comes from handlers running outside it).
  struct Core {
    ThreadId running = kNoThread;
    std::uint64_t dispatches = 0;
    std::uint64_t steals = 0;
  };

  /// Occupancy: at most one *running* thread per component (cores>1 only).
  /// depth counts re-entrant holds (same-component invokes, reboot seize).
  struct Occupant {
    ThreadId owner = kNoThread;
    int depth = 0;
  };

  /// One in-flight recovery domain (cores>1 only): the claimed closure, the
  /// re-entrancy depth, and the machine-escalation flags. Keyed by owner in
  /// active_recoveries_; each claimed CompId maps back to the owner in
  /// domain_owner_.
  struct ActiveRecovery {
    int depth = 0;
    std::uint64_t seq = 0;       ///< Acquisition order; breaks escalation ties.
    CompId root = kNoComp;       ///< The faulted component that opened the domain.
    std::vector<CompId> comps;   ///< Claimed closure components.
    bool machine = false;          ///< Holds the whole machine.
    bool waiting_machine = false;  ///< Parked mid-upgrade to the machine.
  };

  SimThread& thd(ThreadId id) const;
  /// The calling host thread's simulated thread in THIS kernel, or nullptr
  /// for root/boot contexts (and sim threads of other kernels).
  SimThread* self_if_running() const;
  CompId top_or_home_locked(const SimThread& t) const {
    return t.stack.empty() ? t.home : t.stack.back().comp;
  }

  // Scheduling internals; all require mtx_ held.
  void make_ready_locked(SimThread& t);
  /// Best dispatchable ready thread for `core` (priority, then incumbent,
  /// then core affinity, then FIFO; occupancy-gated at cores>1). Consults
  /// the schedule policy exactly like the single-core pick did.
  SimThread* pick_for_core_locked(int core, bool* stolen);
  /// Fills `core`'s dispatch slot. With allow_idle_steps (the consensus
  /// path), the *last active* core advances virtual time to the earliest
  /// deadline when nothing is runnable anywhere, and detects deadlock.
  bool dispatch_core_locked(int core, bool allow_idle_steps);
  /// Removes `t` from its core and releases its running occupancy.
  void undispatch_locked(SimThread& t);
  /// Dispatches ready threads onto idle cores (no-op at cores=1).
  void kick_idle_cores_locked(int except_core = -1);
  bool any_other_core_active_locked(int core) const;
  // Occupancy helpers (no-ops at cores=1 / during shutdown).
  bool occ_free_locked(CompId comp, ThreadId me) const;
  void occ_acquire_locked(CompId comp, ThreadId me);
  void occ_release_locked(CompId comp, ThreadId me);
  /// Acquires occupancy of `comp` for `self`, blocking (scheduler wait, core
  /// released) until it is free. Caller must have released any occupancy it
  /// no longer needs first (no hold-and-wait except the reboot seize).
  /// Returns true if it had to wait (a scheduling point).
  bool occ_wait_acquire_locked(std::unique_lock<std::mutex>& lock, SimThread& self, CompId comp);
  /// Reopens a component closed by fault detection and readies any thread
  /// that queued on it while closed (no-op if the component wasn't closed).
  void clear_fault_pending_locked(CompId comp);
  /// Default scheduling order: priority-FIFO, with sched_incumbent_ winning
  /// ties (set only at voluntary scheduling points under a policy, where the
  /// uninstrumented kernel would have kept the running thread).
  bool ranks_before_locked(const SimThread& a, const SimThread& b) const;
  /// Builds the default-ordered candidate list and lets the installed policy
  /// choose. Only called with >= 2 ready threads.
  ThreadId policy_pick_locked(std::size_t ready_count);
  /// Hands the CPU to the best ready thread and waits until this thread is
  /// scheduled again (or shutdown). Caller must have set its own state.
  void reschedule_and_wait_locked(std::unique_lock<std::mutex>& lock, SimThread& self);
  void advance_time_to_next_deadline_locked();
  void wake_expired_timers_locked();
  void trampoline(SimThread& t);
  /// Raises ServerRebooted if any frame on self's stack is stale.
  void check_stack_epochs(SimThread& self);
  /// Same, but banks a genuine (non-recovery) wakeup before unwinding a
  /// blocked call so the redo does not lose it.
  void check_stack_epochs_banking(SimThread& self);
  void record_crash(const SystemCrash& crash);
  /// Wakes every thread's handoff signal and every root waiter: used where
  /// shutdown_ turns true (shutdown, crash, deadlock declaration).
  void wake_all_locked();
  void do_micro_reboot(Component& comp);
  /// Fault path shared by invoke() and inject_crash(): supervisor-or-direct
  /// reboot, with nested ComponentFaults escalated to SystemCrash.
  void vector_fault(CompId comp);
  // Recovery-domain internals (cores>1; degenerate no-ops at cores=1).
  /// The calling context's recovery identity: its sim ThreadId, or the
  /// shared root-context id for boot/teardown/test threads.
  ThreadId recovery_caller_id() const;
  /// `faulted`'s domain closure via the installed resolver ({faulted} alone
  /// when unset), deduplicated and always containing `faulted`.
  std::vector<CompId> domain_closure(CompId faulted) const;
  /// True when `me` has recovery authority over `comp`: a scoped claim of it,
  /// or the machine (unless another owner claims `comp`).
  bool recovery_authority_locked(CompId comp, ThreadId me) const;
  /// Machine grant condition for a mid-recovery escalator: nobody else holds
  /// the machine, every other recovery is itself parked escalating, and `me`
  /// is the earliest-acquired waiter.
  bool machine_grant_ok_locked(ThreadId me) const;
  /// Upgrades `me`'s active recovery to the machine (traces kDomainEscalate,
  /// parks until machine_grant_ok). Caller re-finds map entries after: the
  /// wait drops mtx_.
  void machine_upgrade_locked(std::unique_lock<std::mutex>& lock, ThreadId me, CompId about,
                              std::int32_t reason);
  /// Readies every token_wait thread (and notifies root waiters) so parked
  /// domain/machine waiters re-evaluate their grant conditions.
  void wake_token_waiters_locked();
  /// Blocks the calling thread while `server` is held (supervisor backoff);
  /// throws QuarantinedError if it is quarantined. Runs before the server
  /// frame is pushed. Returns false if the server micro-rebooted while the
  /// caller was parked at the gate: the invocation must NOT be dispatched
  /// (the client stub saw the pre-reboot epoch, so its descriptors have not
  /// been recovered) — invoke() surfaces the fault flag instead, and the
  /// stub redoes with recovery.
  bool admission_gate(CompId server);

  void trace_impl(trace::EventKind kind, CompId comp, std::int32_t a, std::int32_t b,
                  std::int64_t c, std::int64_t d);

  mutable std::mutex mtx_;
  /// Root-context waiters only (run(), root domain/token/machine waits, the
  /// root reboot seize); simulated threads wait on SimThread::wake. Notified
  /// at the events those predicates read: thread exit, token-waiter wakes,
  /// fault-pending clears, a component's final occupancy release, shutdown.
  std::condition_variable root_cv_;

  std::unordered_map<CompId, Component*> components_;
  std::unordered_map<CompId, int> fault_epochs_;
  CompId next_comp_id_ = 1;

  std::vector<std::unique_ptr<SimThread>> threads_;
  std::uint64_t ready_seq_counter_ = 0;
  bool running_ = false;
  bool shutdown_ = false;

  int ncores_ = 1;
  std::vector<Core> cores_ = std::vector<Core>(1);
  int next_affinity_ = 0;
  int running_now_ = 0;
  int max_concurrent_ = 0;
  std::unordered_map<CompId, Occupant> occupants_;
  /// Components closed between fault detection and their micro-reboot (or
  /// quarantine): invariant 1 fault containment at cores > 1. Guarded by
  /// mtx_; always empty on a single-runner kernel.
  std::unordered_set<CompId> fault_pending_;
  /// Recovery domains (cores>1 only; all empty/false on a single-runner
  /// kernel, where the handoff serializes recovery globally).
  std::unordered_map<CompId, ThreadId> domain_owner_;
  std::unordered_map<ThreadId, ActiveRecovery> active_recoveries_;
  bool machine_held_ = false;
  ThreadId machine_owner_ = kNoThread;
  std::uint64_t recovery_seq_counter_ = 0;
  int max_concurrent_recoveries_ = 0;
  DomainResolver domain_resolver_;

  bool default_allow_ = true;
  std::unordered_set<std::uint64_t> caps_;  ///< (client << 32) | server.

  VirtualClock clock_;
  VirtualTime tick_per_invocation_ = 1;
  std::unordered_map<CompId, std::uint64_t> completions_;

  std::function<void(Component&)> micro_reboot_;
  std::vector<RebootHook> reboot_hooks_;
  FaultVector fault_supervisor_;
  SchedulePolicy* schedule_policy_ = nullptr;
  std::uint64_t policy_step_limit_ = 1'000'000;
  std::uint64_t policy_steps_ = 0;
  std::uint64_t policy_choices_ = 0;     ///< Pick choice points numbered so far.
  std::uint64_t crash_choices_ = 0;      ///< Crash choice points numbered so far
                                         ///< (mirrors the policy's own counter;
                                         ///< stamped into kInvokeEnter events as
                                         ///< commutation metadata).
  ThreadId sched_incumbent_ = kNoThread;  ///< Valid for the next pick only.
  std::unordered_map<CompId, VirtualTime> hold_until_;
  std::unordered_set<CompId> quarantined_;
  int total_reboots_ = 0;
  std::uint64_t invocation_count_ = 0;
  int invoke_depth_guard_ = 0;
  trace::Tracer tracer_;

  std::optional<SystemCrash> crash_;
};

}  // namespace sg::kernel
