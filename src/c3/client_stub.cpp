#include "c3/client_stub.hpp"

#include <functional>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace sg::c3 {

using kernel::Args;
using kernel::CallCtx;
using kernel::Value;

namespace {
constexpr int kMaxRedos = 16;
constexpr int kMaxRecoveryAttempts = 4;
constexpr int kMaxParentDepth = 64;

/// Internal signal: a recovery step itself hit a server fault; the outer
/// ensure_recovered loop restarts the walk (bounded).
struct RecoveryFaulted {};
}  // namespace

ClientStub::TestKnobs ClientStub::test_knobs;

std::string ClientStub::recreate_fn_name(const std::string& service) {
  return "sg_recreate_" + service;
}

ClientStub::ClientStub(kernel::Kernel& kernel, kernel::Component& client, kernel::CompId server,
                       const InterfaceSpec& spec, StorageComponent* storage)
    : kernel_(kernel),
      client_(client),
      server_(server),
      spec_(spec),
      rt_(spec.compiled()),
      storage_(storage) {
  SG_ASSERT_MSG(spec_.sm.finalized(), spec_.service + ": spec not finalized");
  records_creators_ = spec_.desc_is_global || spec_.parent == ParentKind::kXCParent;
  if (records_creators_ || spec_.resc_has_data) {
    SG_ASSERT_MSG(storage_ != nullptr, spec_.service + ": G0/G1 interface needs a storage component");
  }
  if (storage_ != nullptr) storage_ns_ = storage_->intern_ns(spec_.service);
  last_epoch_ = kernel_.fault_epoch(server_);
  // U0: export the recreation upcall on the client so server stubs (G0) and
  // dependent services (XCParent) can rebuild descriptors this client created.
  const std::string upcall = recreate_fn_name(spec_.service);
  if (!client_.exports(upcall)) {
    client_.export_fn(upcall, [this](CallCtx&, const Args& args) -> Value {
      SG_ASSERT(args.size() == 1);
      ++stats_.upcall_recreates;
      return recreate_by_vid(args[0]);
    });
  }
}

Value ClientStub::call(const std::string& fn_name, const Args& args) {
  return call_id(resolve(fn_name), args);
}

FnId ClientStub::resolve(const std::string& fn) {
  const FnId id = rt_.fn_id(fn);
  SG_ASSERT_MSG(id != kNoFn, spec_.service + ": unknown interface fn " + fn);
  return id;
}

Value ClientStub::call_id(FnId fn_id, const Args& args) {
  const CompiledFn& fn = rt_.fn(fn_id);
  ++stats_.calls;

  // A server micro-rebooted on behalf of *another* client leaves no fault
  // flag for us — detect it by epoch before touching descriptors.
  if (kernel_.fault_epoch(server_) != last_epoch_) fault_update();

  for (int redo = 0; redo < kMaxRedos; ++redo) {
    Args wire = args;
    TrackedDesc* desc = nullptr;
    TrackedDesc* parent = nullptr;

    // --- pre-invocation descriptor bookkeeping ---------------------------
    if (fn.desc_idx >= 0) {
      desc = table_.find(args[static_cast<std::size_t>(fn.desc_idx)]);
      if (desc != nullptr) {
        // On-demand (T1): recover the touched descriptor at this thread's
        // priority, parents first (D1).
        ensure_recovered(*desc);
        if (fn.is_terminal() && spec_.desc_close_children) {
          recover_subtree(*desc);  // D0.
        }
        wire[static_cast<std::size_t>(fn.desc_idx)] = desc->sid();
        // SM-based fault detection: reject invalid transition attempts.
        // Blocking fns are exempt: a second thread may legally contend while
        // the descriptor sits in a held state (completion order, not
        // invocation order, is what the machine models). Redo iterations are
        // exempt too: the gate vets fresh client intent, but a redo retries
        // an attempt that was already valid when issued — and whose faulted
        // try may have completed server-side (fault between handler
        // completion and return), legitimately moving σ past the transition.
        // The server's own handler decides whether the duplicate is benign.
        if (redo == 0 && !fn.is_block() && !rt_.valid(desc->state, fn_id)) {
          ++stats_.invalid_transitions;
          SG_DEBUG("stub", spec_.service << "." << fn.decl->name << " invalid from state "
                                         << spec_.sm.state_name(desc->state));
          return kernel::kErrInval;
        }
      }
      // Untracked id on a global interface: a foreign descriptor — pass it
      // through; the server stub's G0 path owns its recovery.
    }
    if (fn.parent_idx >= 0) {
      parent = table_.find(args[static_cast<std::size_t>(fn.parent_idx)]);
      if (parent != nullptr) {
        ensure_recovered(*parent);
        wire[static_cast<std::size_t>(fn.parent_idx)] = parent->sid();
      }
    }

    // cores>1: a fault on another core can reboot the server between the
    // translation above and the invocation, and a thread sharing this stub
    // can absorb it meanwhile. Fence the call on the epoch the descriptors
    // were recovered against: read it, re-check that what we translated is
    // still settled (fault_update marks before it publishes the epoch), and
    // let the kernel refuse the dispatch if the server rebooted since. At
    // cores=1 nothing runs in between, so the re-check always passes; the
    // fence refuses only a call whose descriptors missed a reboot while the
    // walk parked, the window the EINVAL check below also covers.
    int translated_epoch = -1;
    if ((desc != nullptr || parent != nullptr) && !test_knobs.disable_epoch_redo_check) {
      translated_epoch = last_epoch_;
      const kernel::ThreadId me = kernel_.current_thread();
      const bool guard = !test_knobs.disable_walk_guard;
      if ((desc != nullptr && !DescTable::walk_settled(*desc, me, guard)) ||
          (parent != nullptr && !DescTable::walk_settled(*parent, me, guard))) {
        ++stats_.redos;
        continue;
      }
    }

    // --- the invocation ----------------------------------------------------
    // The epoch our wire ids were translated against. Per-call, NOT the
    // shared last_epoch_: another thread driving this same stub may
    // fault_update() while our invocation is in flight, which would make a
    // stale EINVAL look legitimate below.
    const int wire_epoch = kernel_.fault_epoch(server_);
    const std::uint64_t pre_seq = desc != nullptr ? desc->commit_seq : 0;
    const kernel::InvokeResult res =
        kernel_.invoke(client_.id(), server_, fn.decl->name, wire, translated_epoch);
    if (res.fault) {
      ++stats_.redos;
      fault_update();
      continue;  // goto redo (Fig 4).
    }
    // Erroneous-return-value-aware stub logic (§III-C): EINVAL is legitimate
    // only if the server has not been micro-rebooted behind our back since
    // we translated the id — another client's fault may have wiped it between
    // our epoch check and this invocation. Recover (unless a concurrent
    // caller already did) and redo. The wire_epoch clause holds for every
    // descriptor, foreign ones included: a reboot during the call can wipe
    // one the server stub's G0 path has just recreated.
    // wire_epoch alone is not enough for a descriptor we track: if the
    // server crashes again between this iteration's recovery walk and the id
    // translation (the thread can park inside the walk and wake on the very
    // tick of the new crash), wire_epoch is read post-crash and matches
    // fault_epoch even though the walk ran against the previous incarnation.
    // last_epoch_ still holds the epoch the walk absorbed, so comparing it
    // catches that window.
    if (res.ret == kernel::kErrInval &&
        (kernel_.fault_epoch(server_) != wire_epoch ||
         (desc != nullptr && !test_knobs.disable_epoch_redo_check &&
          kernel_.fault_epoch(server_) != last_epoch_))) {
      ++stats_.redos;
      if (kernel_.fault_epoch(server_) != last_epoch_) fault_update();
      continue;
    }

    // --- post-invocation tracking ------------------------------------------
    track_result(fn_id, fn, args, res.ret, pre_seq);
    return res.ret;
  }
  throw kernel::SystemCrash(kernel::CrashKind::kDoubleFault, server_,
                            spec_.service + "." + fn.decl->name + ": redo limit exceeded");
}

void ClientStub::fault_update() {
  const int epoch = kernel_.fault_epoch(server_);
  if (epoch == last_epoch_) return;
  // Mark before publishing the epoch: a thread sharing this stub that reads
  // the new last_epoch_ skips fault_update, so its next walk claim must
  // already find every descriptor faulty.
  table_.mark_all_faulty();
  last_epoch_ = epoch;
}

void ClientStub::recover_all() {
  fault_update();
  table_.for_each([this](TrackedDesc& desc) {
    if (!desc.zombie) ensure_recovered(desc);
  });
}

Value ClientStub::recreate_by_vid(Value vid) {
  TrackedDesc* desc = table_.find(vid);
  if (desc == nullptr) return kernel::kErrInval;
  fault_update();
  DescTable::set_faulty(*desc, true);  // Force a fresh replay even if our epoch was current.
  kernel_.trace(trace::EventKind::kMechanism, server_,
                static_cast<std::int32_t>(trace::Mechanism::kU0), 0, vid);
  ensure_recovered(*desc);
  return kernel::kOk;
}

void ClientStub::ensure_recovered(TrackedDesc& desc, int depth) {
  // Another thread driving this same stub may be mid-walk on this descriptor
  // (the walk's invocations can block — e.g. park at the supervisor's
  // admission gate). Its sid is about to be remapped; wait for the walk
  // instead of taking the cleared `faulty` bit at face value. park_tick (not
  // yield) so a lower-priority walk owner gets the CPU to finish its walk.
  const kernel::ThreadId me = kernel_.current_thread();
  const bool guard = !test_knobs.disable_walk_guard;
  if (DescTable::walk_settled(desc, me, guard)) return;
  kernel::ThreadId walk_owner = kernel::kNoThread;
  for (;;) {
    const DescTable::WalkClaim claim = DescTable::claim_walk(desc, me, guard, &walk_owner);
    if (claim == DescTable::WalkClaim::kClean) return;
    if (claim == DescTable::WalkClaim::kClaimed) break;
    kernel_.park_tick();
  }
  SG_ASSERT_MSG(depth < kMaxParentDepth, spec_.service + ": descriptor parent chain too deep");
  kernel_.trace(trace::EventKind::kMechanism, server_,
                static_cast<std::int32_t>(trace::Mechanism::kT1), 0, desc.vid);
  struct WalkGuard {
    TrackedDesc& desc;
    kernel::ThreadId restore;
    ~WalkGuard() { DescTable::end_walk(desc, restore); }
  } walk_guard{desc, walk_owner};
  for (int attempt = 0; attempt < kMaxRecoveryAttempts; ++attempt) {
    try {
      recover_once(desc, depth);
      ++stats_.recoveries;
      return;
    } catch (const RecoveryFaulted&) {
      // The server faulted *while we were recovering it*; every descriptor
      // is s_f again. Restart this descriptor's walk.
      kernel_.trace(trace::EventKind::kWalkAbort, server_, 0, 0, desc.vid);
      fault_update();
      DescTable::set_faulty(desc, false);
    }
  }
  throw kernel::SystemCrash(kernel::CrashKind::kDoubleFault, server_,
                            spec_.service + ": recovery kept faulting");
}

void ClientStub::recover_once(TrackedDesc& desc, int depth) {
  const StateId expected = desc.state;
  kernel_.trace(trace::EventKind::kWalkBegin, server_, expected, rt_.walk_land(expected),
                desc.vid);

  // D1: parents strictly before children, root-to-leaf.
  if (desc.parent_vid != kNoParent) {
    TrackedDesc* parent = table_.find(desc.parent_vid);
    if (parent != nullptr) {
      if (DescTable::faulty(*parent)) {
        kernel_.trace(trace::EventKind::kMechanism, server_,
                      static_cast<std::int32_t>(trace::Mechanism::kD1), 0, parent->vid);
      }
      ensure_recovered(*parent, depth + 1);
    }
    // An untracked parent id is a cross-component (XCParent) or global
    // parent: its creator's stub recovers it via the server's G0 path.
  }

  // Replay the descriptor's own creation fn with the id hint appended
  // (stable descriptor ids).
  const FnId create = desc.created_by != kNoFn ? desc.created_by : rt_.creation_fn();
  Args create_args = build_replay_args(rt_.fn(create), desc);
  create_args.push_back(desc.sid());
  const Value new_sid = recovery_invoke(create, create_args);
  if (new_sid < 0) {
    throw kernel::SystemCrash(kernel::CrashKind::kDoubleFault, server_,
                              spec_.service + ": creation replay returned " +
                                  std::to_string(new_sid));
  }
  table_.set_sid(desc, new_sid);

  // sm_restore fns re-establish tracked descriptor data (e.g., tlseek).
  for (const FnId restore_fn : rt_.restore_fns()) {
    recovery_invoke(restore_fn, build_replay_args(rt_.fn(restore_fn), desc));
    ++stats_.walk_fns;
  }

  // R0: the precomputed shortest walk from s0 to the expected state.
  StateId cur = kStateInitial;
  for (const FnId walk_fn : rt_.recovery_walk(expected)) {
    const StateId next = rt_.fn(walk_fn).next_state;
    kernel_.trace(trace::EventKind::kWalkStep, server_, cur, next, desc.vid, walk_fn);
    recovery_invoke(walk_fn, build_replay_args(rt_.fn(walk_fn), desc));
    ++stats_.walk_fns;
    cur = next;
  }
  desc.state = rt_.walk_land(expected);
  kernel_.trace(trace::EventKind::kWalkEnd, server_, desc.state, 0, desc.vid);
}

void ClientStub::recover_subtree(TrackedDesc& desc) {
  for (const Value child_vid : desc.children) {
    TrackedDesc* child = table_.find(child_vid);
    if (child == nullptr) continue;
    if (DescTable::faulty(*child)) {
      kernel_.trace(trace::EventKind::kMechanism, server_,
                    static_cast<std::int32_t>(trace::Mechanism::kD0), 0, child->vid);
    }
    ensure_recovered(*child);
    recover_subtree(*child);
  }
}

Args ClientStub::build_replay_args(const CompiledFn& fn, const TrackedDesc& desc) {
  Args out;
  out.reserve(fn.decl->params.size());
  for (std::size_t i = 0; i < fn.decl->params.size(); ++i) {
    const ParamSpec& param = fn.decl->params[i];
    switch (param.role) {
      case ParamRole::kDesc:
        out.push_back(desc.sid());
        break;
      case ParamRole::kParentDesc: {
        Value parent_sid = desc.parent_vid;
        if (const TrackedDesc* parent = table_.find(desc.parent_vid)) parent_sid = parent->sid();
        out.push_back(parent_sid);
        break;
      }
      case ParamRole::kDescData:
        out.push_back(desc.field(fn.param_fields[i]));
        break;
      case ParamRole::kClientId:
        out.push_back(client_.id());
        break;
      case ParamRole::kPlain:
        SG_ASSERT_MSG(false, spec_.service + "." + fn.decl->name + ": unreplayable plain param '" +
                                 param.name + "' (compiler validation should have caught this)");
    }
  }
  return out;
}

Value ClientStub::recovery_invoke(FnId fn, const Args& args) {
  const kernel::InvokeResult res =
      kernel_.invoke(client_.id(), server_, rt_.fn(fn).decl->name, args);
  if (res.fault) throw RecoveryFaulted{};
  return res.ret;
}

std::size_t ClientStub::republish_creators() {
  if (!records_creators_ || storage_ == nullptr) return 0;
  std::size_t count = 0;
  table_.for_each([this, &count](TrackedDesc& desc) {
    if (desc.zombie) return;
    record_creator(desc);
    ++count;
  });
  return count;
}

void ClientStub::record_creator(const TrackedDesc& desc) {
  // G0 (and XCParent upcall routing): remember who created this descriptor
  // so the server stub can upcall for its recreation. The record's string
  // meta map is rebuilt from the interned fields here, off the hot path.
  StorageComponent::DescRecord record{client_.id(), desc.parent_vid, {}};
  for (FieldId f = 0; f < static_cast<FieldId>(rt_.field_count()); ++f) {
    if (desc.has_field(f)) record.meta[rt_.field_name(f)] = desc.field(f);
  }
  storage_->record_desc(storage_ns_, desc.vid, std::move(record));
}

void ClientStub::track_result(FnId fn_id, const CompiledFn& fn, const Args& args, Value ret,
                              std::uint64_t pre_seq) {
  if (fn.is_creation()) {
    if (ret < 0) return;  // Failed creation: nothing to track.
    ++stats_.tracked_creates;
    TrackedDesc& desc = table_.create(ret, ret, kStateInitial, args);
    desc.created_by = fn_id;
    for (std::size_t i = 0; i < fn.param_fields.size(); ++i) {
      if (fn.param_fields[i] != kNoField) desc.set_field(fn.param_fields[i], args[i]);
      if (fn.decl->params[i].role == ParamRole::kParentDesc) {
        desc.parent_vid = args[i];
        if (TrackedDesc* parent = table_.find(args[i])) parent->children.push_back(desc.vid);
      }
    }
    if (fn.ret_field != kNoField) desc.set_field(fn.ret_field, ret);
    if (records_creators_ && storage_ != nullptr) record_creator(desc);
    return;
  }

  TrackedDesc* desc = nullptr;
  if (fn.desc_idx >= 0) desc = table_.find(args[static_cast<std::size_t>(fn.desc_idx)]);
  if (desc == nullptr) return;  // Foreign/untracked descriptor.

  if (fn.is_terminal()) {
    if (ret < 0) return;
    const Value vid = desc->vid;
    if (records_creators_ && storage_ != nullptr) {
      // Erase the creator records for the whole tracked subtree so stale
      // entries cannot route G0 upcalls for revoked descriptors.
      std::function<void(const TrackedDesc&)> erase_records = [&](const TrackedDesc& d) {
        storage_->erase_desc(storage_ns_, d.vid);
        if (!spec_.desc_close_children) return;
        for (const Value child : d.children) {
          if (const TrackedDesc* child_desc = table_.find(child)) erase_records(*child_desc);
        }
      };
      erase_records(*desc);
    }
    table_.remove(vid, spec_.desc_close_children);
    return;
  }

  if (ret < 0) return;  // Errors do not transition descriptor state.
  // Shared-descriptor completion ordering: client *return* order can invert
  // server completion order — a blocking call woken by our own invocation
  // (release wakes take) finishes server-side after us but commits its state
  // here before we resume. If another call committed on this descriptor while
  // ours was in flight, that commit is the newer truth and ours must defer,
  // or the SM would record a held lock as free and reject the owner's next
  // call. Blocking fns always commit: being woken orders them last.
  if (!fn.is_block() && desc->commit_seq != pre_seq) {
    ++stats_.deferred_commits;
    SG_DEBUG("stub", spec_.service << "." << fn.decl->name
                                   << " commit deferred to racing completion on vid "
                                   << desc->vid);
    return;
  }
  ++desc->commit_seq;
  ++stats_.transitions;
  kernel_.trace(trace::EventKind::kDescSigma, server_, desc->state, fn.next_state, desc->vid,
                fn_id);
  desc->state = fn.next_state;
  for (std::size_t i = 0; i < fn.param_fields.size(); ++i) {
    if (fn.param_fields[i] != kNoField) desc->set_field(fn.param_fields[i], args[i]);
  }
  if (fn.ret_add_field != kNoField && ret > 0) desc->add_field(fn.ret_add_field, ret);
}

}  // namespace sg::c3
