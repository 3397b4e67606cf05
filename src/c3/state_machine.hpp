#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "c3/ids.hpp"

namespace sg::c3 {

/// Runtime descriptor state machine SM = (I, S, σ, s0, sf) from §III-B.
///
/// States are *implicit*, as in the paper: the IDL declares which interface
/// function may follow which (`sm_transition(f, g)`), and the compiler infers
/// the state set. A state is an equivalence class of "descriptor after
/// executing f" situations; two functions whose outgoing transition sets are
/// identical land the descriptor in the same state (e.g., tread/twrite/tlseek
/// all leave a file "open at an offset").
///
/// The recovery walk (R0) is precomputed per state by BFS over non-blocking
/// edges: blocking functions are never replayed during recovery — a blocked
/// condition is re-established by the client's own redo of its in-flight
/// call, not by the walk (see DESIGN.md). Functions marked `sm_restore` are
/// replayed right after creation whenever the descriptor is live, restoring
/// tracked descriptor data (e.g., tlseek restores the file offset).
///
/// finalize() also *interns* the machine: every function and state name gets
/// a dense id, and σ, validity, and the recovery walks become flat
/// id-indexed tables. Every query is by id; callers resolve a name once
/// (fn_id/state_id) and map ids back with fn_name/state_name.
class DescStateMachine {
 public:
  /// Well-known state names.
  static constexpr const char* kInitial = "s0";   ///< Fresh descriptor (§III-B s_0).
  static constexpr const char* kFaulty = "sf";    ///< After server fault (s_f).
  static constexpr const char* kClosed = "closed";

  /// Declares that `to_fn` may legally follow `from_fn` on a descriptor.
  void add_transition(const std::string& from_fn, const std::string& to_fn);

  void set_creation(const std::string& fn);
  void set_terminal(const std::string& fn);
  void set_block(const std::string& fn);
  void set_wakeup(const std::string& fn);
  void set_restore(const std::string& fn);
  /// Marks a fn whose completion *consumes* a one-shot condition (e.g.
  /// evt_wait consumes a trigger). Consuming edges are never replayed in
  /// recovery walks; a state entered only by consuming fns recovers to s0.
  void set_consume(const std::string& fn);

  const std::set<std::string>& creation_fns() const { return creation_; }
  const std::set<std::string>& terminal_fns() const { return terminal_; }
  const std::set<std::string>& block_fns() const { return block_; }
  const std::set<std::string>& wakeup_fns() const { return wakeup_; }
  const std::vector<std::string>& restore_fns() const { return restore_; }
  const std::set<std::string>& consume_fns() const { return consume_; }

  bool is_creation(const std::string& fn) const { return creation_.count(fn) != 0; }
  bool is_terminal(const std::string& fn) const { return terminal_.count(fn) != 0; }
  bool is_block(const std::string& fn) const { return block_.count(fn) != 0; }
  bool is_wakeup(const std::string& fn) const { return wakeup_.count(fn) != 0; }
  bool is_consume(const std::string& fn) const { return consume_.count(fn) != 0; }

  /// Infers the state set, merges equivalent states, precomputes the
  /// shortest recovery walks, and interns everything into dense id-indexed
  /// tables. Must be called once before query methods; throws
  /// sg::AssertionError on an inconsistent machine (e.g., a terminal
  /// function that is also a creation function).
  void finalize();
  bool finalized() const { return finalized_; }

  // --- interned id API -------------------------------------------------------
  // Fn ids are assigned in sorted-name order over every function the machine
  // mentions; state ids put s0 first (kStateInitial == 0), the remaining
  // live states in sorted order, and the closed pseudo-state last. Both
  // assignments are deterministic, so identical machines built from any spec
  // source (hand-written, sgidlc-generated, IDL-parsed) intern identically.

  FnId fn_id(const std::string& fn) const;  ///< kNoFn when unknown.
  const std::string& fn_name(FnId id) const;
  std::size_t fn_count() const { require_finalized(); return fn_names_.size(); }
  std::uint8_t fn_flags(FnId id) const;

  StateId state_id(const std::string& state) const;  ///< kNoState when unknown.
  const std::string& state_name(StateId id) const;
  StateId closed_state() const { require_finalized(); return closed_state_; }
  /// Number of live states (excluding sf/closed) — the |S| of Eq. (2).
  std::size_t live_state_count() const;

  /// Fault-detection half of the model (§III-B motivation #1): is `fn` a
  /// legal transition out of `state`? False for unknown ids. Creation fns
  /// are checked separately: they are valid only before a descriptor exists.
  bool valid(StateId state, FnId fn) const;
  /// σ(·, fn): the state a descriptor enters when `fn` completes (the
  /// machine's states are "after f" classes, so σ depends only on the fn).
  /// closed_state() for terminal fns.
  StateId next_state_id(FnId fn) const;
  /// The precomputed R0 walk: the (possibly empty) fn sequence that takes a
  /// *recreated* descriptor (creation fn and sm_restore fns already
  /// replayed) from s0 to `state`. A state reachable only by closing or
  /// consuming gets the empty walk; reached_state_id() tells where it lands.
  const std::vector<FnId>& recovery_walk_ids(StateId state) const;
  /// Where recovery_walk_ids(state) actually lands (== state unless no walk
  /// reaches it).
  StateId reached_state_id(StateId state) const;
  const std::vector<FnId>& restore_fn_ids() const { require_finalized(); return restore_ids_; }

  /// All inferred live states (excluding sf/closed), sorted by name — the
  /// order the generated C state enum lists them in.
  std::vector<std::string> states() const;

 private:
  void require_finalized() const;

  // Build inputs (retained for the *_fns() accessors and codegen).
  std::set<std::string> creation_;
  std::set<std::string> terminal_;
  std::set<std::string> block_;
  std::set<std::string> wakeup_;
  std::set<std::string> consume_;
  std::vector<std::string> restore_;
  std::vector<std::pair<std::string, std::string>> transitions_;

  bool finalized_ = false;

  // Interned tables, built by finalize(). All queries are served from these.
  std::vector<std::string> fn_names_;          ///< FnId -> name (sorted assignment).
  std::map<std::string, FnId> fn_ids_;         ///< name -> FnId.
  std::vector<std::uint8_t> fn_flags_;         ///< FnId -> FnFlags bits.
  std::vector<StateId> fn_state_;              ///< FnId -> σ target ("after fn" class).
  std::vector<std::string> state_names_;       ///< StateId -> name; s0 first, closed last.
  std::map<std::string, StateId> state_ids_;   ///< name -> StateId.
  StateId closed_state_ = kNoState;
  std::vector<std::uint8_t> valid_;            ///< live_states × fns validity matrix.
  std::vector<std::vector<FnId>> walk_ids_;    ///< Per live state: R0 walk as fn ids.
  std::vector<StateId> walk_lands_;            ///< Per live state: where the walk lands.
  std::vector<FnId> restore_ids_;
};

}  // namespace sg::c3
