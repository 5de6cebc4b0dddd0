#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <thread>
#include <utility>

namespace tcsim {

uint64_t CurrentThreadTag() {
  // |1 keeps the tag distinct from the "unclaimed" owner value 0.
  static thread_local const uint64_t tag =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1u;
  return tag;
}

void EventQueue::CheckGuardSlow() const {
  if (guard_->executing == nullptr ||
      !guard_->executing->load(std::memory_order_relaxed)) {
    return;  // between windows: the coordinator thread owns everything
  }
  if (guard_->owner.load(std::memory_order_relaxed) != CurrentThreadTag()) {
    guard_violations_.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventHandle::Cancel() {
  if (queue_ != nullptr) {
    queue_->CancelSlot(slot_, generation_);
  }
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->SlotPending(slot_, generation_);
}

EventHandle EventQueue::Push(SimTime t, EventFn&& fn) {
  CheckGuard();
  uint32_t index;
  if (free_head_ != kNoSlot) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
    ++slot_reuses_;
  } else {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.live = true;
  // The sequence number is consumed here, at scheduling time, whether or not
  // the event later fires — it encodes the scheduling site's position in the
  // global event-creation order, which is what the determinism digest keys on.
  const uint64_t seq = next_seq_++;
  heap_.push_back(HeapEntry{t, seq, index, slot.generation});
  std::push_heap(heap_.begin(), heap_.end(), After{});
  ++live_;
  if (live_ > live_high_water_) {
    live_high_water_ = live_;
  }
  return EventHandle(this, index, slot.generation);
}

void EventQueue::ReleaseSlot(uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn.Reset();
  slot.live = false;
  ++slot.generation;  // invalidates every outstanding handle and heap entry
  slot.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::CancelSlot(uint32_t index, uint32_t generation) {
  CheckGuard();
  if (index >= slots_.size()) {
    return;
  }
  Slot& slot = slots_[index];
  if (!slot.live || slot.generation != generation) {
    return;  // already fired, cancelled, or the slot was reused
  }
  ReleaseSlot(index);
  --live_;
  // The heap entry stays behind as stale; DropStale discards it when it
  // surfaces, or the rebuild below once stale entries outnumber live ones.
  if (++stale_ > live_) {
    PurgeStale();
  }
}

void EventQueue::PurgeStale() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) { return Stale(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), After{});
  stale_ = 0;
}

bool EventQueue::SlotPending(uint32_t index, uint32_t generation) const {
  if (index >= slots_.size()) {
    return false;
  }
  const Slot& slot = slots_[index];
  return slot.live && slot.generation == generation;
}

void EventQueue::Clear() {
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live) {
      ReleaseSlot(i);
    }
  }
  heap_.clear();
  stale_ = 0;
  live_ = 0;
  // next_seq_ and digest_ are deliberately preserved: they fingerprint the
  // whole process run across checkpoint restores.
}

void EventQueue::DropStale() const {
  while (!heap_.empty() && Stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    heap_.pop_back();
    --stale_;
  }
}

SimTime EventQueue::NextTime() const {
  DropStale();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventFn EventQueue::Pop(SimTime* t) {
  CheckGuard();
  DropStale();
  assert(!heap_.empty());
  const HeapEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), After{});
  heap_.pop_back();
  *t = top.time;
  EventFn fn = std::move(slots_[top.slot].fn);
  ReleaseSlot(top.slot);
  --live_;
  // The dispatch order of (time, seq) pairs is the run's determinism
  // fingerprint: seq captures the scheduling site's position in the global
  // event-creation order, time the instant it fired.
  digest_.Mix(static_cast<uint64_t>(top.time));
  digest_.Mix(top.seq);
  return fn;
}

}  // namespace tcsim
