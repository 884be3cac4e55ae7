#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <utility>

#include "src/sim/logging.h"

namespace taichi::sim {

EventId EventQueue::ScheduleRepeating(SimTime first, Duration period, InlineCallback fn) {
  if (period == 0) {
    // A zero period would store a one-shot event that PopNext frees, so the
    // standing timer would silently vanish after its first firing.
    TAICHI_ERROR(first, "EventQueue::ScheduleRepeating: zero period (first=%" PRIu64 ")",
                 first);
    assert(period > 0 && "EventQueue::ScheduleRepeating: zero period");
  }
  return ScheduleSlot(first, period, std::move(fn));
}

EventId EventQueue::ScheduleSlot(SimTime when, Duration period, InlineCallback fn) {
  uint32_t slot;
  if (free_head_ != kNoFreeSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoFreeSlot;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_.back().gen = gen_floor_;
  }
  Slot& s = slots_[slot];
  s.period = period;
  s.fn = std::move(fn);
  PushHeap(MakeKey(when, next_seq_++), slot);
  return MakeId(slot, s.gen);
}

size_t EventQueue::LiveSlotOf(EventId id) const {
  const size_t slot = (id & 0xffffffffu) - 1;  // id 0 wraps to SIZE_MAX.
  if (slot >= slots_.size()) {
    return slots_.size();
  }
  const Slot& s = slots_[slot];
  if (s.gen != static_cast<uint32_t>(id >> 32) || s.heap_pos == kNotInHeap) {
    return slots_.size();
  }
  return slot;
}

bool EventQueue::IsPending(EventId id) const { return LiveSlotOf(id) < slots_.size(); }

bool EventQueue::Reschedule(EventId id, SimTime when) {
  const size_t slot = LiveSlotOf(id);
  if (slot >= slots_.size()) {
    return false;
  }
  const size_t pos = slots_[slot].heap_pos;
  // A fresh sequence number, exactly as Cancel + Schedule would have
  // assigned: the re-keyed event orders after everything already scheduled
  // at the same time. This is what keeps the conversion byte-identical.
  heap_[pos].key = MakeKey(when, next_seq_++);
  SiftUp(pos);
  SiftDown(slots_[slot].heap_pos);
  return true;
}

bool EventQueue::Cancel(EventId id) {
  const size_t slot = LiveSlotOf(id);
  if (slot >= slots_.size()) {
    return false;
  }
  RemoveFromHeap(slots_[slot].heap_pos);
  FreeSlot(static_cast<uint32_t>(slot));
  return true;
}

SimTime EventQueue::NextTime() const {
  assert(!empty());
  return heap_.front().when();
}

EventQueue::Fired EventQueue::PopNext() {
  assert(!empty());
  HeapEntry& e = heap_.front();
  const uint32_t slot = e.slot;
  Slot& s = slots_[slot];
  Fired fired{e.when(), MakeId(slot, s.gen), std::move(s.fn), s.period > 0};
  if (s.period > 0) {
    // Re-key in place for the next firing; the callback is out with the
    // caller and comes back via RestoreRepeating(). The fresh seq puts the
    // next firing after events the callback schedules at the same time.
    e.key = MakeKey(e.when() + s.period, next_seq_++);
    SiftDownFromTop(0);
  } else {
    RemoveFromHeap(0);
    FreeSlot(slot);
  }
  // Periodic high-water-mark check: after a burst drains, the next check
  // returns the dead tail of the slot table. ShrinkToFit's own gates make
  // this free in steady state.
  if (++pops_since_shrink_check_ >= kAutoShrinkPopInterval) {
    pops_since_shrink_check_ = 0;
    ShrinkToFit();
  }
  return fired;
}

void EventQueue::RestoreRepeating(EventId id, InlineCallback fn) {
  const size_t slot = LiveSlotOf(id);
  if (slot >= slots_.size()) {
    return;  // Cancelled during its own callback; drop the cycle.
  }
  slots_[slot].fn = std::move(fn);
}

void EventQueue::ShrinkToFit() {
  // Gate: only worth it when the table is large and mostly free.
  if (slots_.size() < kShrinkMinSlots || size() * 4 > slots_.size()) {
    return;
  }
  // Only trailing free slots can go: live slots must keep their index.
  size_t keep = slots_.size();
  while (keep > 0 && slots_[keep - 1].heap_pos == kNotInHeap) {
    --keep;
  }
  if (keep == slots_.size()) {
    return;
  }
  // Every id ever handed out for a dropped slot must stay dead, including
  // against slots regrown later at the same index.
  for (size_t i = keep; i < slots_.size(); ++i) {
    gen_floor_ = std::max(gen_floor_, slots_[i].gen + 1);
  }
  slots_.resize(keep);
  slots_.shrink_to_fit();
  heap_.shrink_to_fit();
  // Rebuild the free list over the surviving slots.
  free_head_ = kNoFreeSlot;
  for (size_t i = keep; i-- > 0;) {
    if (slots_[i].heap_pos == kNotInHeap) {
      slots_[i].next_free = free_head_;
      free_head_ = static_cast<uint32_t>(i);
    }
  }
}

void EventQueue::PushHeap(unsigned __int128 key, uint32_t slot) {
  slots_[slot].heap_pos = static_cast<uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{key, slot});
  SiftUp(heap_.size() - 1);
}

void EventQueue::SiftUp(size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 4;
    if (entry.key >= heap_[parent].key) {
      break;
    }
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = static_cast<uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<uint32_t>(pos);
}

void EventQueue::SiftDown(size_t pos) {
  const HeapEntry entry = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    const size_t first_child = pos * 4 + 1;
    if (first_child >= n) {
      break;
    }
    const size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].key < heap_[best].key) {
        best = c;
      }
    }
    if (heap_[best].key >= entry.key) {
      break;
    }
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = static_cast<uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<uint32_t>(pos);
}

void EventQueue::SiftDownFromTop(size_t pos) {
  const HeapEntry entry = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    const size_t first_child = pos * 4 + 1;
    if (first_child >= n) {
      break;
    }
    const size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].key < heap_[best].key) {
        best = c;
      }
    }
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = static_cast<uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<uint32_t>(pos);
  SiftUp(pos);
}

void EventQueue::RemoveFromHeap(size_t pos) {
  assert(pos < heap_.size());
  slots_[heap_[pos].slot].heap_pos = kNotInHeap;
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;
  }
  heap_[pos] = moved;
  slots_[moved.slot].heap_pos = static_cast<uint32_t>(pos);
  // `moved` came from the heap's bottom: it almost always sinks back down,
  // so take the compare-free path to a leaf and fix up from there.
  SiftDownFromTop(pos);
}

void EventQueue::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  assert(s.heap_pos == kNotInHeap);
  s.fn = nullptr;
  s.period = 0;
  ++s.gen;  // Invalidates every outstanding id for this slot.
  s.next_free = free_head_;
  free_head_ = slot;
}

}  // namespace taichi::sim
