// A cancellable discrete-event queue ordered by (time, insertion sequence).
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/sim/time.h"

namespace taichi::sim {

// Identifies a scheduled event so it can be cancelled before it fires.
// Id 0 is never allocated and acts as "no event".
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Min-heap of timed callbacks. Events at equal times fire in insertion order,
// which keeps simulations deterministic. Not thread-safe: each simulator
// instance is single-threaded by design (a fleet runs one queue per node).
//
// Layout: events live in recycled slots; the heap is a 4-ary min-heap whose
// entries carry their (time, sequence) key inline next to the slot index, so
// sift comparisons walk a contiguous 32-byte-stride array and never touch the
// slot table (whose entries are ~128 bytes once the callback buffer is
// inline — chasing keys through it was the dominant cache cost of the sift).
// An EventId packs (slot generation, slot index), so Cancel() and IsPending()
// are O(1) slot lookups — a stale id sees a bumped generation and misses —
// and cancellation removes the heap entry immediately instead of leaving a
// tombstone. Idle-poll fast-forwarding cancels and reschedules constantly, so
// the structure must not accumulate dead entries between pops. The 4-ary
// shape halves the tree depth of a binary heap and keeps the children of a
// node within two cache lines, which is where the sift time goes on the hot
// schedule/pop path.
//
// The steady-state schedule → fire cycle is allocation-free: callbacks are
// InlineCallback (no per-closure heap spill), slots and heap entries recycle,
// and standing timers can be re-keyed in place (Reschedule) or re-armed
// without callback reconstruction (ScheduleRepeating).
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `when`. Returns a handle usable
  // with Cancel() until the event has fired.
  EventId Schedule(SimTime when, InlineCallback fn) {
    return ScheduleSlot(when, 0, std::move(fn));
  }

  // Schedules `fn` at `first`, then every `period` after that, reusing one
  // slot and one callback forever: firing re-keys the slot in place (fresh
  // sequence number, time += period) instead of freeing + reallocating it.
  // The id stays valid across firings; Cancel() stops the repetition, and
  // Reschedule() (typically from inside the callback) overrides the next
  // firing time. Requires period > 0: a zero period is a model bug,
  // reported via TAICHI_ERROR + assert.
  EventId ScheduleRepeating(SimTime first, Duration period, InlineCallback fn);

  // Re-keys a pending event to fire at `when` instead. The existing heap
  // entry sifts in place: no slot free/alloc, no generation bump,
  // and the callback is untouched. The event receives a fresh sequence
  // number, so its order against other events at the same time is exactly as
  // if it had been cancelled and rescheduled. Returns false (and does
  // nothing) if `id` is not pending.
  bool Reschedule(EventId id, SimTime when);

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event is a harmless no-op. Returns true if the event was still pending.
  bool Cancel(EventId id);

  // True if `id` is scheduled and not yet fired or cancelled.
  bool IsPending(EventId id) const;

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Time of the earliest pending event. Only valid when !empty().
  SimTime NextTime() const;

  // Removes and returns the earliest pending event. Only valid when !empty().
  // For a repeating event the slot stays live, re-keyed to when + period with
  // a fresh sequence number; the callback is moved out for the caller to
  // invoke and must be handed back via RestoreRepeating() afterwards (the
  // slot cannot be borrowed from during the callback: nested schedules may
  // reallocate the slot table, and Cancel may free the slot mid-callback).
  struct Fired {
    SimTime when;
    EventId id;
    InlineCallback fn;
    bool repeating = false;
  };
  Fired PopNext();

  // Returns a repeating callback to its slot after invocation. A no-op if
  // the event was cancelled (or cancelled + slot reused) during its own
  // callback — the callback is then dropped on the floor, ending the cycle.
  void RestoreRepeating(EventId id, InlineCallback fn);

  // Releases slot-table memory after a burst: drops trailing free slots and
  // rebuilds the free list. Cheap no-op unless the table is mostly free
  // (pending ≪ capacity), so callers can invoke it at natural quiesce points
  // (the fleet layer does, between epochs). Live slots never move — their
  // ids stay valid — and ids of dropped slots can never alias future events:
  // regrown slots start at a generation floor above every dropped one.
  //
  // The queue also self-triggers this check every kAutoShrinkPopInterval
  // pops, so a long single-node run whose burst high-water mark has passed
  // returns slot memory without anyone calling ShrinkToFit() — the gates
  // above make the periodic check a two-compare no-op in steady state, and
  // shrinking is memory-only: event order and ids of live events are
  // untouched.
  void ShrinkToFit();
  static constexpr uint32_t kAutoShrinkPopInterval = 4096;

  // Total events scheduled since construction (fired, pending or cancelled).
  // A repeating event counts once per arming or firing, matching the
  // schedule-per-cycle pattern it replaces.
  uint64_t total_scheduled() const { return next_seq_ - 1; }

  // Current slot-table capacity (test/introspection hook for ShrinkToFit).
  size_t slot_count() const { return slots_.size(); }

 private:
  static constexpr uint32_t kNotInHeap = UINT32_MAX;
  static constexpr uint32_t kNoFreeSlot = UINT32_MAX;
  // ShrinkToFit leaves tables smaller than this alone: re-growing would cost
  // more than the held memory is worth.
  static constexpr size_t kShrinkMinSlots = 256;

  // The (when, seq) key lives in the heap entry, not here: the sift loops
  // must not dereference this (large) struct per comparison.
  struct Slot {
    Duration period = 0;  // > 0: repeating; PopNext re-keys instead of freeing.
    InlineCallback fn;
    uint32_t gen = 0;                // Bumped on free; stale ids miss.
    uint32_t heap_pos = kNotInHeap;  // kNotInHeap means "not pending".
    uint32_t next_free = kNoFreeSlot;
  };

  // The (time, sequence) key packed so one unsigned compare is the full
  // lexicographic order; seq is globally unique, so keys never tie and pop
  // order is independent of the heap's internal arrangement.
  struct HeapEntry {
    unsigned __int128 key;
    uint32_t slot;

    SimTime when() const { return static_cast<SimTime>(key >> 64); }
  };

  static unsigned __int128 MakeKey(SimTime when, uint64_t seq) {
    return (static_cast<unsigned __int128>(when) << 64) | seq;
  }

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    // +1 keeps id 0 unallocated even for (slot 0, gen 0).
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }
  // Returns the slot index for `id` if it refers to a live event, else
  // a value >= slots_.size().
  size_t LiveSlotOf(EventId id) const;

  EventId ScheduleSlot(SimTime when, Duration period, InlineCallback fn);

  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  // Pop-path variant: walks the hole to a leaf promoting the best child
  // (no per-level compare against the displaced entry), then sifts the entry
  // up from there. Pops always displace a near-maximal key — a re-keyed
  // repeating timer or the heap's last entry — so the sift-up is almost
  // always a single compare.
  void SiftDownFromTop(size_t pos);
  // Detaches the heap entry at `pos` (swap with last + sift both ways).
  void RemoveFromHeap(size_t pos);
  // Appends (key, slot) to the heap and restores the heap property.
  void PushHeap(unsigned __int128 key, uint32_t slot);
  // Returns the slot at `slot` to the free list and invalidates its id.
  void FreeSlot(uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap by (when, seq).
  uint32_t free_head_ = kNoFreeSlot;
  // Slots created after a ShrinkToFit start at this generation, keeping every
  // id handed out for a dropped slot permanently dead.
  uint32_t gen_floor_ = 0;
  uint32_t pops_since_shrink_check_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace taichi::sim

#endif  // SRC_SIM_EVENT_QUEUE_H_
