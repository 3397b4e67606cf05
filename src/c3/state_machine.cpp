#include "c3/state_machine.hpp"

#include <algorithm>
#include <deque>

#include "util/assert.hpp"

namespace sg::c3 {

void DescStateMachine::add_transition(const std::string& from_fn, const std::string& to_fn) {
  SG_ASSERT_MSG(!finalized_, "add_transition after finalize");
  transitions_.emplace_back(from_fn, to_fn);
}

void DescStateMachine::set_creation(const std::string& fn) { creation_.insert(fn); }
void DescStateMachine::set_terminal(const std::string& fn) { terminal_.insert(fn); }
void DescStateMachine::set_block(const std::string& fn) { block_.insert(fn); }
void DescStateMachine::set_wakeup(const std::string& fn) { wakeup_.insert(fn); }
void DescStateMachine::set_consume(const std::string& fn) { consume_.insert(fn); }

void DescStateMachine::set_restore(const std::string& fn) {
  if (std::find(restore_.begin(), restore_.end(), fn) == restore_.end()) restore_.push_back(fn);
}

void DescStateMachine::finalize() {
  SG_ASSERT_MSG(!finalized_, "finalize called twice");
  SG_ASSERT_MSG(!creation_.empty(), "state machine needs at least one sm_creation fn");
  for (const auto& fn : terminal_) {
    SG_ASSERT_MSG(creation_.count(fn) == 0, "fn is both creation and terminal: " + fn);
  }

  // Collect every function and its outgoing transition set. Only creation,
  // terminal, and transition fns participate in state inference; block/
  // wakeup/consume/restore fns outside the transition graph are still
  // interned below but shape no states.
  std::map<std::string, std::set<std::string>> outgoing;
  auto touch = [&outgoing](const std::string& fn) { outgoing.emplace(fn, std::set<std::string>{}); };
  for (const auto& fn : creation_) touch(fn);
  for (const auto& fn : terminal_) touch(fn);
  for (const auto& [from, to] : transitions_) {
    touch(from);
    touch(to);
    outgoing[from].insert(to);
  }

  // Intern functions: sorted-name order (std::set iteration), so the id
  // assignment is deterministic regardless of declaration source.
  std::set<std::string> all_fns;
  for (const auto& [fn, out] : outgoing) all_fns.insert(fn);
  for (const auto& fn : block_) all_fns.insert(fn);
  for (const auto& fn : wakeup_) all_fns.insert(fn);
  for (const auto& fn : consume_) all_fns.insert(fn);
  for (const auto& fn : restore_) all_fns.insert(fn);
  for (const auto& fn : all_fns) {
    const FnId id = static_cast<FnId>(fn_names_.size());
    fn_names_.push_back(fn);
    fn_ids_.emplace(fn, id);
    std::uint8_t flags = 0;
    if (creation_.count(fn) != 0) flags |= FnFlags::kCreation;
    if (terminal_.count(fn) != 0) flags |= FnFlags::kTerminal;
    if (block_.count(fn) != 0) flags |= FnFlags::kBlock;
    if (wakeup_.count(fn) != 0) flags |= FnFlags::kWakeup;
    if (consume_.count(fn) != 0) flags |= FnFlags::kConsume;
    fn_flags_.push_back(flags);
  }

  // Infer states: "after f" situations merge when outgoing sets are equal
  // (the paper's implicit-state rule). Any class containing a creation fn is
  // the initial state s0; terminal fns land in the closed pseudo-state.
  std::map<std::string, std::string> fn_to_state;
  std::map<std::set<std::string>, std::vector<std::string>> classes;
  for (const auto& [fn, out] : outgoing) {
    if (terminal_.count(fn) != 0) continue;  // after-terminal == closed.
    classes[out].push_back(fn);
  }
  for (auto& [out, members] : classes) {
    std::sort(members.begin(), members.end());
    const bool has_create =
        std::any_of(members.begin(), members.end(),
                    [this](const std::string& fn) { return creation_.count(fn) != 0; });
    const std::string state = has_create ? std::string(kInitial) : "after_" + members.front();
    for (const auto& fn : members) fn_to_state[fn] = state;
  }
  for (const auto& fn : terminal_) fn_to_state[fn] = kClosed;

  // Intern states: s0 first (kStateInitial == 0), the remaining live states
  // in sorted order, and the closed pseudo-state last.
  std::set<std::string> live_states{kInitial};  // s0 exists even with no edges.
  for (const auto& [fn, state] : fn_to_state) {
    if (state != kClosed) live_states.insert(state);
  }
  state_names_.push_back(kInitial);
  state_ids_.emplace(kInitial, kStateInitial);
  for (const auto& state : live_states) {
    if (state == kInitial) continue;
    state_ids_.emplace(state, static_cast<StateId>(state_names_.size()));
    state_names_.push_back(state);
  }
  closed_state_ = static_cast<StateId>(state_names_.size());
  state_names_.push_back(kClosed);
  state_ids_.emplace(kClosed, closed_state_);

  // σ per fn: the interned "after fn" class.
  fn_state_.resize(fn_names_.size(), kNoState);
  for (const auto& [fn, state] : fn_to_state) {
    fn_state_[static_cast<std::size_t>(fn_ids_.at(fn))] = state_ids_.at(state);
  }

  // Validity matrix over live states × fns.
  const std::size_t live_count = static_cast<std::size_t>(closed_state_);
  valid_.assign(live_count * fn_names_.size(), 0);
  for (const auto& [fn, out] : outgoing) {
    if (terminal_.count(fn) != 0) continue;
    const auto from_state = static_cast<std::size_t>(state_ids_.at(fn_to_state.at(fn)));
    for (const auto& next_fn : out) {
      valid_[from_state * fn_names_.size() + static_cast<std::size_t>(fn_ids_.at(next_fn))] = 1;
    }
  }

  // Precompute recovery walks: BFS from s0. Blocking edges are allowed (a
  // re-taken lock legitimately contends at the recovering thread's priority);
  // terminal and consuming edges never appear (a walk never closes a
  // descriptor nor re-consumes a one-shot condition).
  std::map<StateId, std::vector<FnId>> best;
  best[kStateInitial] = {};
  std::deque<StateId> frontier{kStateInitial};
  while (!frontier.empty()) {
    const StateId state = frontier.front();
    frontier.pop_front();
    for (FnId fn = 0; fn < static_cast<FnId>(fn_names_.size()); ++fn) {
      if (valid_[static_cast<std::size_t>(state) * fn_names_.size() +
                 static_cast<std::size_t>(fn)] == 0) {
        continue;
      }
      if ((fn_flags_[static_cast<std::size_t>(fn)] &
           (FnFlags::kTerminal | FnFlags::kConsume)) != 0) {
        continue;  // Never close nor re-consume during a walk.
      }
      const StateId next = fn_state_[static_cast<std::size_t>(fn)];
      if (best.count(next) != 0) continue;
      auto path = best[state];
      path.push_back(fn);
      best[next] = std::move(path);
      frontier.push_back(next);
    }
  }
  walk_ids_.resize(live_count);
  walk_lands_.assign(live_count, kStateInitial);
  for (StateId state = 0; state < closed_state_; ++state) {
    auto it = best.find(state);
    // Unreachable without closing the descriptor: recover to s0 (the empty
    // walk) and let the client's in-flight redo drive the rest.
    if (it == best.end()) continue;
    walk_ids_[static_cast<std::size_t>(state)] = it->second;
    walk_lands_[static_cast<std::size_t>(state)] = state;
  }

  for (const auto& fn : restore_) restore_ids_.push_back(fn_ids_.at(fn));

  finalized_ = true;
}

void DescStateMachine::require_finalized() const {
  SG_ASSERT_MSG(finalized_, "DescStateMachine used before finalize()");
}

// --- interned id API ---------------------------------------------------------

FnId DescStateMachine::fn_id(const std::string& fn) const {
  require_finalized();
  auto it = fn_ids_.find(fn);
  return it == fn_ids_.end() ? kNoFn : it->second;
}

const std::string& DescStateMachine::fn_name(FnId id) const {
  require_finalized();
  SG_ASSERT_MSG(id >= 0 && static_cast<std::size_t>(id) < fn_names_.size(), "bad fn id");
  return fn_names_[static_cast<std::size_t>(id)];
}

std::uint8_t DescStateMachine::fn_flags(FnId id) const {
  require_finalized();
  SG_ASSERT_MSG(id >= 0 && static_cast<std::size_t>(id) < fn_flags_.size(), "bad fn id");
  return fn_flags_[static_cast<std::size_t>(id)];
}

StateId DescStateMachine::state_id(const std::string& state) const {
  require_finalized();
  auto it = state_ids_.find(state);
  return it == state_ids_.end() ? kNoState : it->second;
}

const std::string& DescStateMachine::state_name(StateId id) const {
  require_finalized();
  SG_ASSERT_MSG(id >= 0 && static_cast<std::size_t>(id) < state_names_.size(), "bad state id");
  return state_names_[static_cast<std::size_t>(id)];
}

std::size_t DescStateMachine::live_state_count() const {
  require_finalized();
  return static_cast<std::size_t>(closed_state_);
}

bool DescStateMachine::valid(StateId state, FnId fn) const {
  if (state < 0 || state >= closed_state_ || fn < 0 ||
      static_cast<std::size_t>(fn) >= fn_names_.size()) {
    return false;
  }
  return valid_[static_cast<std::size_t>(state) * fn_names_.size() +
                static_cast<std::size_t>(fn)] != 0;
}

StateId DescStateMachine::next_state_id(FnId fn) const {
  require_finalized();
  SG_ASSERT_MSG(fn >= 0 && static_cast<std::size_t>(fn) < fn_state_.size(), "bad fn id");
  return fn_state_[static_cast<std::size_t>(fn)];
}

const std::vector<FnId>& DescStateMachine::recovery_walk_ids(StateId state) const {
  require_finalized();
  SG_ASSERT_MSG(state >= 0 && state < closed_state_,
                "no recovery walk for state id " + std::to_string(state));
  return walk_ids_[static_cast<std::size_t>(state)];
}

StateId DescStateMachine::reached_state_id(StateId state) const {
  require_finalized();
  SG_ASSERT_MSG(state >= 0 && state < closed_state_,
                "no walk target for state id " + std::to_string(state));
  return walk_lands_[static_cast<std::size_t>(state)];
}

std::vector<std::string> DescStateMachine::states() const {
  require_finalized();
  std::vector<std::string> out(state_names_.begin(), state_names_.end() - 1);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sg::c3
