#include "c3/desc_track.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sg::c3 {

using kernel::Value;

TrackedDesc& DescTable::create(Value vid, Value sid, StateId initial_state,
                               kernel::Args creation_args) {
  SG_ASSERT_MSG(vid != kNoParent,
                "descriptor vid 0 collides with the kNoParent sentinel");
  std::lock_guard<std::mutex> guard(mu_);
  auto it = by_vid_.find(vid);
  std::uint32_t index;
  if (it != by_vid_.end()) {
    // Re-creating an already-tracked descriptor is legal: idempotent creation
    // fns (e.g., mman_get_page on an existing vaddr) return the same id.
    index = it->second;
    drop_sid_index(slots_[index].desc.sid_, index);
  } else if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
    by_vid_.emplace(vid, index);
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    by_vid_.emplace(vid, index);
  }
  Slot& slot = slots_[index];
  if (!slot.live) ++count_;
  slot.live = true;
  TrackedDesc& desc = slot.desc;
  desc.vid = vid;
  desc.sid_ = sid;
  desc.state = initial_state;
  desc.creation_args = std::move(creation_args);
  set_faulty(desc, false);
  desc.zombie = false;
  by_sid_.emplace(sid, index);
  return desc;
}

TrackedDesc* DescTable::find(Value vid) {
  std::lock_guard<std::mutex> guard(mu_);
  return find_locked(vid);
}

TrackedDesc* DescTable::find_locked(Value vid) {
  auto it = by_vid_.find(vid);
  return it == by_vid_.end() ? nullptr : &slots_[it->second].desc;
}

const TrackedDesc* DescTable::find(Value vid) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = by_vid_.find(vid);
  return it == by_vid_.end() ? nullptr : &slots_[it->second].desc;
}

TrackedDesc* DescTable::find_by_sid(Value sid) {
  std::lock_guard<std::mutex> guard(mu_);
  auto [begin, end] = by_sid_.equal_range(sid);
  for (auto it = begin; it != end; ++it) {
    Slot& slot = slots_[it->second];
    if (slot.live && !slot.desc.zombie) return &slot.desc;
  }
  return nullptr;
}

void DescTable::set_sid(TrackedDesc& desc, Value sid) {
  if (desc.sid_ == sid) return;
  std::lock_guard<std::mutex> guard(mu_);
  auto it = by_vid_.find(desc.vid);
  SG_ASSERT_MSG(it != by_vid_.end() && &slots_[it->second].desc == &desc,
                "set_sid on a record this table does not own");
  drop_sid_index(desc.sid_, it->second);
  desc.sid_ = sid;
  by_sid_.emplace(sid, it->second);
}

DescTable::Handle DescTable::handle_of(const TrackedDesc& desc) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = by_vid_.find(desc.vid);
  SG_ASSERT_MSG(it != by_vid_.end() && &slots_[it->second].desc == &desc,
                "handle_of on a record this table does not own");
  return Handle{it->second, slots_[it->second].gen};
}

TrackedDesc* DescTable::resolve(Handle handle) {
  std::lock_guard<std::mutex> guard(mu_);
  if (handle.slot >= slots_.size()) return nullptr;
  Slot& slot = slots_[handle.slot];
  if (!slot.live || slot.gen != handle.gen) return nullptr;
  return &slot.desc;
}

void DescTable::drop_sid_index(Value sid, std::uint32_t index) {
  auto [begin, end] = by_sid_.equal_range(sid);
  for (auto it = begin; it != end; ++it) {
    if (it->second == index) {
      by_sid_.erase(it);
      return;
    }
  }
}

void DescTable::erase_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  SG_ASSERT_MSG(slot.live, "erase of a dead slot");
  by_vid_.erase(slot.desc.vid);
  drop_sid_index(slot.desc.sid_, index);
  slot.desc = TrackedDesc{};
  slot.live = false;
  ++slot.gen;  // Invalidate outstanding handles to the recycled slot.
  free_.push_back(index);
  --count_;
}

void DescTable::unlink_from_parent(TrackedDesc& desc) {
  if (desc.parent_vid == kNoParent) return;
  TrackedDesc* parent = find_locked(desc.parent_vid);
  if (parent == nullptr) return;
  auto& kids = parent->children;
  kids.erase(std::remove(kids.begin(), kids.end(), desc.vid), kids.end());
  reap_if_zombie_done(parent->vid);
}

void DescTable::reap_if_zombie_done(Value vid) {
  auto it = by_vid_.find(vid);
  if (it == by_vid_.end()) return;
  TrackedDesc& desc = slots_[it->second].desc;
  if (desc.zombie && desc.children.empty()) {
    const Value parent = desc.parent_vid;
    erase_slot(it->second);
    if (parent != kNoParent) {
      // Removing the zombie may allow an ancestor zombie to be reaped too.
      TrackedDesc* up = find_locked(parent);
      if (up != nullptr) {
        auto& kids = up->children;
        kids.erase(std::remove(kids.begin(), kids.end(), vid), kids.end());
        reap_if_zombie_done(parent);
      }
    }
  }
}

void DescTable::remove(Value vid, bool cascade) {
  std::lock_guard<std::mutex> guard(mu_);
  remove_locked(vid, cascade);
}

void DescTable::remove_locked(Value vid, bool cascade) {
  auto it = by_vid_.find(vid);
  if (it == by_vid_.end()) return;
  TrackedDesc* desc = &slots_[it->second].desc;
  if (cascade) {
    // C_dr: recursive revocation removes the whole subtree's tracking.
    const std::vector<Value> kids = desc->children;  // Copy: children mutate the table.
    for (const Value child : kids) remove_locked(child, true);
    it = by_vid_.find(vid);
    if (it == by_vid_.end()) return;
    desc = &slots_[it->second].desc;
    unlink_from_parent(*desc);
    erase_slot(by_vid_.at(vid));
    return;
  }
  if (!desc->children.empty()) {
    // Y_dr == false with live children: keep metadata for the children (§III-A).
    desc->zombie = true;
    return;
  }
  unlink_from_parent(*desc);
  erase_slot(by_vid_.at(vid));
}

void DescTable::mark_all_faulty() {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& slot : slots_) {
    if (slot.live) set_faulty(slot.desc, true);
  }
}

// The walk guard is lock-free: every tracked call passes it. A claimer
// publishes its ownership (CAS on `recovering`) before it clears `faulty`,
// and readers load the owner again after seeing `faulty` clear, so a walk
// that started between their two reads is never taken for "recovered".
// std::atomic_ref keeps TrackedDesc a plain, copyable record.
DescTable::WalkClaim DescTable::claim_walk(TrackedDesc& desc, kernel::ThreadId me, bool guard,
                                           kernel::ThreadId* prev_owner) {
  std::atomic_ref<kernel::ThreadId> owner(desc.recovering);
  std::atomic_ref<bool> faulty(desc.faulty);
  auto foreign = [&](kernel::ThreadId t) { return guard && t != kernel::kNoThread && t != me; };
  for (;;) {
    kernel::ThreadId cur = owner.load();
    if (foreign(cur)) return WalkClaim::kBusy;
    if (!faulty.load()) return foreign(owner.load()) ? WalkClaim::kBusy : WalkClaim::kClean;
    if (!owner.compare_exchange_strong(cur, me)) continue;  // Another claimer won the race.
    if (faulty.exchange(false)) {  // Clear first: walks re-enter call paths via parents.
      *prev_owner = cur;
      return WalkClaim::kClaimed;
    }
    owner.store(cur);  // A walk finished between our reads: nothing left to do.
  }
}

std::size_t DescTable::live_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::size_t count = 0;
  for (const auto& slot : slots_) {
    if (slot.live && !slot.desc.zombie) ++count;
  }
  return count;
}

void DescTable::clear() {
  std::lock_guard<std::mutex> guard(mu_);
  slots_.clear();
  free_.clear();
  by_vid_.clear();
  by_sid_.clear();
  count_ = 0;
}

}  // namespace sg::c3
