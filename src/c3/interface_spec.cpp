#include "c3/interface_spec.hpp"

#include <algorithm>

#include "c3/desc_track.hpp"
#include "util/assert.hpp"

namespace sg::c3 {

const char* to_string(ParamRole role) {
  switch (role) {
    case ParamRole::kPlain: return "plain";
    case ParamRole::kDesc: return "desc";
    case ParamRole::kParentDesc: return "parent_desc";
    case ParamRole::kDescData: return "desc_data";
    case ParamRole::kClientId: return "client_id";
  }
  return "?";
}

const char* to_string(ParentKind kind) {
  switch (kind) {
    case ParentKind::kSolo: return "Solo";
    case ParentKind::kParent: return "Parent";
    case ParentKind::kXCParent: return "XCParent";
  }
  return "?";
}

int FnSpec::desc_param() const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].role == ParamRole::kDesc) return static_cast<int>(i);
  }
  return -1;
}

int FnSpec::parent_param() const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].role == ParamRole::kParentDesc) return static_cast<int>(i);
  }
  return -1;
}

InterfaceSpec::InterfaceSpec(const InterfaceSpec& other)
    : service(other.service),
      desc_block(other.desc_block),
      resc_has_data(other.resc_has_data),
      desc_is_global(other.desc_is_global),
      parent(other.parent),
      desc_close_children(other.desc_close_children),
      desc_close_remove(other.desc_close_remove),
      desc_has_data(other.desc_has_data),
      fns(other.fns),
      sm(other.sm) {}

InterfaceSpec& InterfaceSpec::operator=(const InterfaceSpec& other) {
  if (this == &other) return *this;
  service = other.service;
  desc_block = other.desc_block;
  resc_has_data = other.resc_has_data;
  desc_is_global = other.desc_is_global;
  parent = other.parent;
  desc_close_children = other.desc_close_children;
  desc_close_remove = other.desc_close_remove;
  desc_has_data = other.desc_has_data;
  fns = other.fns;
  sm = other.sm;
  compiled_pub_.store(nullptr, std::memory_order_relaxed);
  compiled_.reset();
  return *this;
}

InterfaceSpec::InterfaceSpec(InterfaceSpec&& other) noexcept
    : service(std::move(other.service)),
      desc_block(other.desc_block),
      resc_has_data(other.resc_has_data),
      desc_is_global(other.desc_is_global),
      parent(other.parent),
      desc_close_children(other.desc_close_children),
      desc_close_remove(other.desc_close_remove),
      desc_has_data(other.desc_has_data),
      fns(std::move(other.fns)),
      sm(std::move(other.sm)) {}

InterfaceSpec& InterfaceSpec::operator=(InterfaceSpec&& other) noexcept {
  if (this == &other) return *this;
  service = std::move(other.service);
  desc_block = other.desc_block;
  resc_has_data = other.resc_has_data;
  desc_is_global = other.desc_is_global;
  parent = other.parent;
  desc_close_children = other.desc_close_children;
  desc_close_remove = other.desc_close_remove;
  desc_has_data = other.desc_has_data;
  fns = std::move(other.fns);
  sm = std::move(other.sm);
  compiled_pub_.store(nullptr, std::memory_order_relaxed);
  compiled_.reset();
  return *this;
}

const FnSpec* InterfaceSpec::find_fn(const std::string& name) const {
  for (const auto& fn_spec : fns) {
    if (fn_spec.name == name) return &fn_spec;
  }
  return nullptr;
}

const FnSpec& InterfaceSpec::fn(const std::string& name) const {
  const FnSpec* found = find_fn(name);
  SG_ASSERT_MSG(found != nullptr, service + ": unknown interface fn " + name);
  return *found;
}

const FnSpec& InterfaceSpec::creation_fn() const {
  SG_ASSERT_MSG(!sm.creation_fns().empty(), service + ": no creation fn");
  for (const auto& fn_spec : fns) {
    if (sm.is_creation(fn_spec.name)) return fn_spec;
  }
  SG_ASSERT_MSG(false, service + ": creation fn missing from fn list");
  __builtin_unreachable();
}

const CompiledRuntime& InterfaceSpec::compiled() const {
  // Lock-free fast path: pairs with the release publish at the end of the
  // build, so a reader that sees the pointer sees the fully-built table.
  if (const CompiledRuntime* pub = compiled_pub_.load(std::memory_order_acquire)) {
    return *pub;
  }
  std::lock_guard<std::mutex> build_guard(compile_mu_);
  if (compiled_ != nullptr) return *compiled_;  // Lost the build race.
  SG_ASSERT_MSG(sm.finalized(), service + ": compile before sm.finalize()");

  auto rt = std::make_unique<CompiledRuntime>();
  rt->live_states_ = sm.live_state_count();
  rt->closed_state_ = sm.closed_state();

  // Fn ids in declaration order; per-fn metadata pre-resolved.
  rt->fns_.reserve(fns.size());
  auto intern_field = [&rt](const std::string& name) -> FieldId {
    auto it = rt->field_ids_.find(name);
    if (it != rt->field_ids_.end()) return it->second;
    const FieldId id = static_cast<FieldId>(rt->field_names_.size());
    rt->field_names_.push_back(name);
    rt->field_ids_.emplace(name, id);
    return id;
  };
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const FnSpec& decl = fns[i];
    rt->fn_ids_.emplace(decl.name, static_cast<FnId>(i));
    CompiledFn cfn;
    cfn.decl = &decl;
    cfn.desc_idx = decl.desc_param();
    cfn.parent_idx = decl.parent_param();
    const FnId sm_fn = sm.fn_id(decl.name);
    if (sm_fn != kNoFn) {
      cfn.flags = sm.fn_flags(sm_fn);
      cfn.next_state = sm.next_state_id(sm_fn);
    }
    cfn.param_fields.reserve(decl.params.size());
    for (const auto& param : decl.params) {
      cfn.param_fields.push_back(param.role == ParamRole::kDescData ? intern_field(param.name)
                                                                    : kNoField);
    }
    if (decl.ret_is_desc && !decl.ret_data_name.empty()) {
      cfn.ret_field = intern_field(decl.ret_data_name);
    }
    if (decl.ret_adds_to.has_value()) cfn.ret_add_field = intern_field(*decl.ret_adds_to);
    rt->fns_.push_back(std::move(cfn));
  }
  SG_ASSERT_MSG(rt->field_names_.size() <= TrackedDesc::kMaxFields,
                service + ": too many tracked D_dr fields for TrackedDesc");

  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (sm.is_creation(fns[i].name)) {
      rt->creation_ = static_cast<FnId>(i);
      break;
    }
  }

  // Validity matrix re-indexed from the machine's fn id space into
  // declaration order.
  rt->valid_.assign(rt->live_states_ * fns.size(), 0);
  for (std::size_t s = 0; s < rt->live_states_; ++s) {
    for (std::size_t f = 0; f < fns.size(); ++f) {
      const FnId sm_fn = sm.fn_id(fns[f].name);
      if (sm_fn != kNoFn && sm.valid(static_cast<StateId>(s), sm_fn)) {
        rt->valid_[s * fns.size() + f] = 1;
      }
    }
  }

  // Recovery walks and restore list, translated into declaration-order ids.
  auto to_decl_id = [this, &rt](FnId sm_fn) -> FnId {
    const FnId id = rt->fn_id(sm.fn_name(sm_fn));
    SG_ASSERT_MSG(id != kNoFn, service + ": sm fn " + sm.fn_name(sm_fn) + " not in fn list");
    return id;
  };
  rt->walks_.resize(rt->live_states_);
  rt->walk_lands_.resize(rt->live_states_);
  for (std::size_t s = 0; s < rt->live_states_; ++s) {
    for (const FnId sm_fn : sm.recovery_walk_ids(static_cast<StateId>(s))) {
      rt->walks_[s].push_back(to_decl_id(sm_fn));
    }
    rt->walk_lands_[s] = sm.reached_state_id(static_cast<StateId>(s));
  }
  for (const FnId sm_fn : sm.restore_fn_ids()) rt->restore_.push_back(to_decl_id(sm_fn));

  compiled_ = std::move(rt);
  compiled_pub_.store(compiled_.get(), std::memory_order_release);
  return *compiled_;
}

MechanismSet InterfaceSpec::mechanisms() const {
  MechanismSet set{Mechanism::kR0, Mechanism::kT1};
  if (desc_block) set.insert(Mechanism::kT0);
  if (desc_close_children) set.insert(Mechanism::kD0);
  if (parent != ParentKind::kSolo) set.insert(Mechanism::kD1);
  if (desc_is_global) set.insert(Mechanism::kG0);
  if (resc_has_data) set.insert(Mechanism::kG1);
  if (desc_is_global || parent == ParentKind::kXCParent) set.insert(Mechanism::kU0);
  return set;
}

void InterfaceSpec::validate() const {
  SG_ASSERT_MSG(!service.empty(), "interface spec without a service name");
  SG_ASSERT_MSG(sm.finalized(), service + ": state machine not finalized");

  // Y_dr ≡ P_dr != Solo ∧ ¬C_dr (§III-A).
  const bool expected_y = (parent != ParentKind::kSolo) && !desc_close_children;
  SG_ASSERT_MSG(desc_close_remove == expected_y,
                service + ": desc_close_remove must equal (P != Solo && !C), model rule Y_dr");

  // I_block ≠ ∅ <-> B_r (§III-B).
  SG_ASSERT_MSG(sm.block_fns().empty() == !desc_block,
                service + ": sm_block set must be non-empty iff desc_block");
  // Every blocking interface needs a wakeup counterpart for T0.
  if (desc_block) {
    SG_ASSERT_MSG(!sm.wakeup_fns().empty(), service + ": desc_block without sm_wakeup fn");
  }

  for (const auto& fn_spec : fns) {
    int desc_params = 0;
    int parent_params = 0;
    for (const auto& param : fn_spec.params) {
      if (param.role == ParamRole::kDesc) ++desc_params;
      if (param.role == ParamRole::kParentDesc) ++parent_params;
      if (param.role == ParamRole::kParentDesc) {
        SG_ASSERT_MSG(parent != ParentKind::kSolo,
                      service + "." + fn_spec.name + ": parent_desc param but P_dr == Solo");
      }
      if (param.role == ParamRole::kDescData) {
        SG_ASSERT_MSG(desc_has_data,
                      service + "." + fn_spec.name + ": desc_data param but !desc_has_data");
      }
    }
    SG_ASSERT_MSG(desc_params <= 1, service + "." + fn_spec.name + ": multiple desc params");
    SG_ASSERT_MSG(parent_params <= 1, service + "." + fn_spec.name + ": multiple parent params");

    const bool is_create = sm.is_creation(fn_spec.name);
    if (is_create) {
      SG_ASSERT_MSG(fn_spec.desc_param() == -1,
                    service + "." + fn_spec.name + ": creation fn cannot take a desc param");
      SG_ASSERT_MSG(fn_spec.ret_is_desc,
                    service + "." + fn_spec.name +
                        ": creation fn needs desc_data_retval to name the new descriptor");
    } else {
      // Non-creation fns must address a descriptor to be trackable.
      SG_ASSERT_MSG(fn_spec.desc_param() != -1,
                    service + "." + fn_spec.name + ": non-creation fn without desc param");
    }
  }

  // Replayability: every param of every fn the recovery can replay (the
  // creation fn, sm_restore fns, and every fn on some recovery walk) must be
  // derivable from tracked state at recovery time.
  auto check_replayable = [this](const FnSpec& fn_spec) {
    for (const auto& param : fn_spec.params) {
      const bool derivable = param.role != ParamRole::kPlain;
      SG_ASSERT_MSG(derivable, service + "." + fn_spec.name + ": param '" + param.name +
                                   "' is not derivable at recovery time (annotate it as desc, "
                                   "parent_desc, desc_data, or use componentid_t)");
    }
  };
  check_replayable(creation_fn());
  for (const auto& restore_name : sm.restore_fns()) check_replayable(fn(restore_name));
  for (std::size_t s = 0; s < sm.live_state_count(); ++s) {
    for (const FnId walk_fn : sm.recovery_walk_ids(static_cast<StateId>(s))) {
      check_replayable(fn(sm.fn_name(walk_fn)));
    }
  }

  // Building the compiled runtime enforces the remaining interning limits
  // (e.g. D_dr must fit TrackedDesc's fixed field array).
  (void)compiled();
}

}  // namespace sg::c3
