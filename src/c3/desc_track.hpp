#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "c3/ids.hpp"
#include "kernel/types.hpp"

namespace sg::c3 {

inline constexpr kernel::Value kNoParent = 0;  ///< Parent id 0 == no parent / root.

/// Client-side tracking record for one descriptor (the bold black squares in
/// Fig 1(b)). Bounded state: the interned SM state id, the D_{d_r} metadata
/// named by the IDL annotations (a fixed FieldId-indexed array), the parent
/// link, and the verbatim creation arguments — never a log of operations
/// (§II-C).
struct TrackedDesc {
  /// Upper bound on distinct D_{d_r} fields per interface; enforced when the
  /// spec's compiled runtime interns the field names.
  static constexpr int kMaxFields = 8;

  kernel::Value vid = 0;  ///< Client-visible descriptor id (stable across faults).
  StateId state = kStateInitial;  ///< Current descriptor state-machine state.
  kernel::Value parent_vid = kNoParent;
  std::vector<kernel::Value> children;
  kernel::Args creation_args;  ///< Original args of the creation call (for replay).
  FnId created_by = kNoFn;     ///< Which creation fn made this descriptor (replayed on recovery).
  bool faulty = false;         ///< In s_f; needs an R0 walk before next use (T1).
  bool zombie = false;         ///< Closed, retained only because children are live.
  /// Thread currently replaying this descriptor's recovery walk (kNoThread
  /// when idle). The walk's invocations can block — e.g. park at the
  /// supervisor's admission gate during a backoff hold — so other threads
  /// sharing the stub must not treat the cleared `faulty` bit as "recovered"
  /// and invoke with the sid the walk is about to remap.
  kernel::ThreadId recovering = kernel::kNoThread;
  /// Bumped on every state-machine commit. Lets a completing call detect that
  /// another thread's call on this same (shared) descriptor committed while
  /// its own invocation was in flight — client return order inverts server
  /// completion order in that window, so the late returner must defer.
  std::uint64_t commit_seq = 0;

  /// Current server-side id (remapped after recovery). Writes go through
  /// DescTable::set_sid so the table's O(1) sid index stays coherent.
  kernel::Value sid() const { return sid_; }

  // --- D_{d_r} tracked metadata, FieldId-indexed ----------------------------
  bool has_field(FieldId f) const {
    return f >= 0 && f < kMaxFields && (field_mask_ & (1u << f)) != 0;
  }
  kernel::Value field(FieldId f) const { return has_field(f) ? fields_[f] : 0; }
  void set_field(FieldId f, kernel::Value v) {
    fields_[f] = v;
    field_mask_ |= static_cast<std::uint8_t>(1u << f);
  }
  void add_field(FieldId f, kernel::Value v) { set_field(f, field(f) + v); }
  std::uint8_t field_mask() const { return field_mask_; }

 private:
  friend class DescTable;
  kernel::Value sid_ = 0;
  kernel::Value fields_[kMaxFields] = {};
  std::uint8_t field_mask_ = 0;
};

/// The per-(client, interface) descriptor table a stub owns.
///
/// Storage is a slab: records live in recycled slots of a std::deque (stable
/// addresses — outstanding TrackedDesc pointers survive growth), with a
/// free list, an O(1) vid→slot hash index, an O(1) sid→slot reverse index,
/// and generation-tagged handles that detect stale references to recycled
/// slots.
///
/// Concurrency (cores>1): an internal mutex guards the slab *structure* —
/// slot allocation/recycling and the vid/sid indexes — so lookups and
/// create/remove are safe from any thread. The *contents* of a TrackedDesc
/// reached through a returned pointer are not locked: they are owned by the
/// descriptor's active thread (the client handler holding the component's
/// occupancy, the per-descriptor `recovering` walker, or the coordinator's
/// token-holding sweep), exactly the single-writer discipline the commit_seq
/// protocol already encodes. The exceptions are `faulty` and `recovering`,
/// which every sharing thread reads: they are accessed atomically, through
/// the walk-guard functions below. The lock is never held across a kernel
/// call.
class DescTable {
 public:
  /// Generation-tagged reference to a slot. A handle taken before a record
  /// was removed no longer resolves after the slot is recycled.
  struct Handle {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// Tracks a descriptor. Re-creating an already-tracked vid is legal
  /// (idempotent creation fns, e.g. mman_get_page on an existing vaddr) and
  /// preserves the record's D_dr fields, parent link, and children.
  /// Asserts vid != 0: descriptor id 0 would silently collide with the
  /// kNoParent sentinel and corrupt parent links.
  TrackedDesc& create(kernel::Value vid, kernel::Value sid, StateId initial_state,
                      kernel::Args creation_args);

  TrackedDesc* find(kernel::Value vid);
  const TrackedDesc* find(kernel::Value vid) const;
  TrackedDesc* find_by_sid(kernel::Value sid);

  /// Remaps a record's server-side id, keeping the sid index coherent.
  void set_sid(TrackedDesc& desc, kernel::Value sid);

  Handle handle_of(const TrackedDesc& desc) const;
  /// nullptr if the handle's slot was recycled (generation mismatch) or dead.
  TrackedDesc* resolve(Handle handle);

  /// Removes a descriptor. With `cascade`, removes the whole child subtree
  /// (C_dr recursive-revocation tracking). Without, the record becomes a
  /// zombie while live children still reference it, and is reaped when the
  /// last child goes.
  void remove(kernel::Value vid, bool cascade);

  /// Transition every live descriptor to s_f (server fault detected).
  void mark_all_faulty();

  /// The T1 walk guard: who replays `desc`'s recovery walk. Threads
  /// sharing the stub at cores>1 can neither both miss a walk in flight nor
  /// both take one. Lock-free (it runs on every tracked call).
  enum class WalkClaim {
    kClean,    ///< Not faulty and no foreign walk in flight: use the descriptor.
    kBusy,     ///< Another thread's walk is in flight: wait and retry.
    kClaimed,  ///< Was faulty: `faulty` is cleared and the caller owns the walk.
  };
  /// With `guard` false (a test knob) a foreign walk in flight is ignored.
  /// On kClaimed, `prev_owner` receives the displaced owner for end_walk.
  static WalkClaim claim_walk(TrackedDesc& desc, kernel::ThreadId me, bool guard,
                              kernel::ThreadId* prev_owner);
  /// True when claim_walk would answer kClean (no side effects): the
  /// every-call fast path, so it is inline.
  static bool walk_settled(TrackedDesc& desc, kernel::ThreadId me, bool guard) {
    std::atomic_ref<kernel::ThreadId> owner(desc.recovering);
    auto foreign = [&](kernel::ThreadId t) { return guard && t != kernel::kNoThread && t != me; };
    if (foreign(owner.load()) || faulty(desc)) return false;
    return !foreign(owner.load());  // A claimer publishes itself before clearing `faulty`.
  }
  static void end_walk(TrackedDesc& desc, kernel::ThreadId prev_owner) {
    std::atomic_ref<kernel::ThreadId>(desc.recovering).store(prev_owner);
  }
  static bool faulty(TrackedDesc& desc) { return std::atomic_ref<bool>(desc.faulty).load(); }
  static void set_faulty(TrackedDesc& desc, bool faulty) {
    std::atomic_ref<bool>(desc.faulty).store(faulty);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> guard(mu_);
    return count_;
  }
  std::size_t live_count() const;
  /// Slots ever allocated (live + recyclable); exposed for the slab tests.
  std::size_t slab_capacity() const {
    std::lock_guard<std::mutex> guard(mu_);
    return slots_.size();
  }

  /// Stable iteration (slot order ≈ creation order) over all records,
  /// zombies included. Unlocked by design — fn may block (recovery walks
  /// invoke through the kernel), so the caller must be the table's owning
  /// thread per the single-writer discipline above.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& slot : slots_) {
      if (slot.live) fn(slot.desc);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& slot : slots_) {
      if (slot.live) fn(slot.desc);
    }
  }

  void clear();

 private:
  struct Slot {
    TrackedDesc desc;
    std::uint32_t gen = 1;
    bool live = false;
  };

  // All require mu_ held.
  void remove_locked(kernel::Value vid, bool cascade);
  TrackedDesc* find_locked(kernel::Value vid);
  void erase_slot(std::uint32_t index);
  void drop_sid_index(kernel::Value sid, std::uint32_t index);
  void unlink_from_parent(TrackedDesc& desc);
  void reap_if_zombie_done(kernel::Value vid);

  mutable std::mutex mu_;  ///< Guards the slab structure (see class comment).
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<kernel::Value, std::uint32_t> by_vid_;
  /// Multimap: distinct records may transiently share a sid across recovery
  /// remaps (e.g. a zombie's stale sid vs. a fresh descriptor's).
  std::unordered_multimap<kernel::Value, std::uint32_t> by_sid_;
  std::size_t count_ = 0;
};

}  // namespace sg::c3
