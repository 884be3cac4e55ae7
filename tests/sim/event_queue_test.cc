#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

namespace taichi::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.PopNext().fn();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotent) {
  EventQueue q;
  EventId id = q.Schedule(10, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventId id = q.Schedule(10, [] {});
  q.PopNext().fn();
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10, [&] { order.push_back(1); });
  EventId mid = q.Schedule(20, [&] { order.push_back(2); });
  q.Schedule(30, [&] { order.push_back(3); });
  q.Cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.Cancel(early);
  EXPECT_EQ(q.NextTime(), 20u);
}

TEST(EventQueueTest, IsPendingTracksLifecycle) {
  EventQueue q;
  EventId id = q.Schedule(10, [] {});
  EXPECT_TRUE(q.IsPending(id));
  q.PopNext();
  EXPECT_FALSE(q.IsPending(id));
}

TEST(EventQueueTest, TotalScheduledCounts) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(i, [] {});
  }
  EXPECT_EQ(q.total_scheduled(), 5u);
}

TEST(EventQueueTest, TotalScheduledCountsCancelledAndFired) {
  EventQueue q;
  EventId a = q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  q.Cancel(a);
  q.PopNext();
  // Cancelling and firing never un-count an allocation, and slot reuse must
  // not double-count: the next schedule is event #3.
  EXPECT_EQ(q.total_scheduled(), 2u);
  q.Schedule(3, [] {});
  EXPECT_EQ(q.total_scheduled(), 3u);
}

TEST(EventQueueTest, StaleIdAfterSlotReuseDoesNotTouchNewEvent) {
  EventQueue q;
  EventId old_id = q.Schedule(10, [] {});
  ASSERT_TRUE(q.Cancel(old_id));
  // The freed slot is recycled for the next event; the stale id must not
  // alias it.
  bool fired = false;
  EventId new_id = q.Schedule(20, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.IsPending(old_id));
  EXPECT_TRUE(q.IsPending(new_id));
  EXPECT_FALSE(q.Cancel(old_id));
  ASSERT_EQ(q.size(), 1u);
  q.PopNext().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, SlotGenerationSurvivesManyReuses) {
  EventQueue q;
  EventId first = q.Schedule(1, [] {});
  q.Cancel(first);
  // Drive many alloc/free cycles through the same slot; every retired id
  // must stay dead.
  std::vector<EventId> retired{first};
  for (int i = 0; i < 1000; ++i) {
    EventId id = q.Schedule(static_cast<SimTime>(i), [] {});
    EXPECT_TRUE(q.IsPending(id));
    q.Cancel(id);
    retired.push_back(id);
  }
  for (EventId id : retired) {
    EXPECT_FALSE(q.IsPending(id));
    EXPECT_FALSE(q.Cancel(id));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FifoOrderAtEqualTimesSurvivesInterleavedCancels) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(q.Schedule(7, [&order, i] { order.push_back(i); }));
  }
  // Cancel the odd ones; the evens must still fire in insertion order.
  for (int i = 1; i < 16; i += 2) {
    EXPECT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
  }
  // Reschedule at the same timestamp: new events sort after all survivors.
  q.Schedule(7, [&order] { order.push_back(100); });
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 14, 100}));
}

TEST(EventQueueTest, CancelRescheduleChurnKeepsQueueConsistent) {
  // The idle-poll pattern: standing timers constantly cancelled and pushed
  // out. Sizes and pop order must stay exact through heavy slot recycling.
  EventQueue q;
  std::vector<EventId> ids;
  uint64_t seed = 7;
  SimTime t = 0;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.Schedule(++t, [] {}));
  }
  for (int round = 0; round < 5000; ++round) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    size_t victim = seed % ids.size();
    EXPECT_TRUE(q.Cancel(ids[victim]));
    EXPECT_FALSE(q.IsPending(ids[victim]));
    ids[victim] = q.Schedule(++t, [] {});
    EXPECT_EQ(q.size(), ids.size());
  }
  EXPECT_EQ(q.total_scheduled(), 64u + 5000u);
  SimTime last = 0;
  size_t popped = 0;
  while (!q.empty()) {
    auto fired = q.PopNext();
    EXPECT_GT(fired.when, last);  // All distinct times here.
    last = fired.when;
    ++popped;
  }
  EXPECT_EQ(popped, ids.size());
}

TEST(EventQueueTest, RescheduleMovesEventLater) {
  EventQueue q;
  std::vector<int> order;
  EventId a = q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  EXPECT_TRUE(q.Reschedule(a, 30));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.IsPending(a));  // Same id stays valid: no generation bump.
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueTest, RescheduleMovesEventEarlier) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(20, [&] { order.push_back(2); });
  EventId late = q.Schedule(30, [&] { order.push_back(1); });
  EXPECT_TRUE(q.Reschedule(late, 10));
  EXPECT_EQ(q.NextTime(), 10u);
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, RescheduleToEqualTimeOrdersAfterExistingEvents) {
  // The contract that keeps Cancel+Schedule -> Reschedule conversions
  // byte-identical: a re-keyed event gets a fresh seq, so at an equal
  // timestamp it fires after everything already scheduled there — exactly
  // where a newly scheduled replacement would land.
  EventQueue q;
  std::vector<int> order;
  EventId first = q.Schedule(5, [&] { order.push_back(0); });
  for (int i = 1; i <= 3; ++i) {
    q.Schedule(5, [&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(q.Reschedule(first, 5));
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
}

TEST(EventQueueTest, RescheduleDeadIdReturnsFalse) {
  EventQueue q;
  EventId fired = q.Schedule(1, [] {});
  q.PopNext();
  EXPECT_FALSE(q.Reschedule(fired, 10));
  EventId cancelled = q.Schedule(2, [] {});
  q.Cancel(cancelled);
  EXPECT_FALSE(q.Reschedule(cancelled, 10));
  EXPECT_FALSE(q.Reschedule(kInvalidEventId, 10));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RepeatingEventFiresAtEveryPeriodWithOneId) {
  EventQueue q;
  int hits = 0;
  EventId id = q.ScheduleRepeating(10, 10, [&] { ++hits; });
  std::vector<SimTime> times;
  for (int i = 0; i < 4; ++i) {
    ASSERT_FALSE(q.empty());
    EventQueue::Fired fired = q.PopNext();
    EXPECT_TRUE(fired.repeating);
    EXPECT_EQ(fired.id, id);
    times.push_back(fired.when);
    fired.fn();
    q.RestoreRepeating(fired.id, std::move(fired.fn));
  }
  EXPECT_EQ(hits, 4);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20, 30, 40}));
  EXPECT_TRUE(q.IsPending(id));
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RepeatingReKeySeqIsAssignedAtPop) {
  // The re-key happens at pop, BEFORE the callback body runs: the next
  // firing orders ahead of events the callback schedules at the same time.
  // That matches a loop that re-arms at the top of its callback (the kernel
  // tick re-armed before any preemption scheduling).
  EventQueue q;
  std::vector<int> order;
  EventId rep = q.ScheduleRepeating(10, 10, [&] { order.push_back(0); });
  EventQueue::Fired fired = q.PopNext();  // Fires at 10; re-keyed to 20.
  fired.fn();
  q.Schedule(20, [&] { order.push_back(1); });  // Scheduled "inside" the callback.
  q.RestoreRepeating(fired.id, std::move(fired.fn));
  fired = q.PopNext();
  EXPECT_EQ(fired.when, 20u);
  EXPECT_EQ(fired.id, rep);  // The repeating event's earlier seq wins.
  fired.fn();
  q.Cancel(rep);
  q.PopNext().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 0, 1}));
}

TEST(EventQueueTest, RescheduleAtBottomRestoresSelfRescheduleOrder) {
  // A loop that used to re-arm at the BOTTOM of its callback (arrival
  // processes) keeps its old equal-time order by ending the callback with
  // Reschedule: the fresh seq lands after the callback's own schedules,
  // exactly where the old self-Schedule's seq landed.
  EventQueue q;
  std::vector<int> order;
  EventId rep = q.ScheduleRepeating(10, 10, [&] { order.push_back(0); });
  EventQueue::Fired fired = q.PopNext();  // Fires at 10; re-keyed to 20.
  fired.fn();
  q.Schedule(20, [&] { order.push_back(1); });  // The callback's side effect.
  EXPECT_TRUE(q.Reschedule(rep, 20));           // Bottom re-arm, fresh seq.
  q.RestoreRepeating(fired.id, std::move(fired.fn));
  fired = q.PopNext();
  EXPECT_EQ(fired.when, 20u);
  fired.fn();  // The one-shot now fires first...
  fired = q.PopNext();
  EXPECT_EQ(fired.id, rep);  // ...and the repeating event after it.
  fired.fn();
  q.Cancel(rep);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0}));
}

TEST(EventQueueTest, CancelDuringOwnCallbackEndsRepeatingCycle) {
  EventQueue q;
  int hits = 0;
  EventId id = kInvalidEventId;
  id = q.ScheduleRepeating(5, 5, [&] {
    ++hits;
    if (hits == 2) {
      EXPECT_TRUE(q.Cancel(id));
    }
  });
  for (int rounds = 0; rounds < 10 && !q.empty(); ++rounds) {
    EventQueue::Fired fired = q.PopNext();
    fired.fn();
    q.RestoreRepeating(fired.id, std::move(fired.fn));
  }
  EXPECT_EQ(hits, 2);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.IsPending(id));
}

TEST(EventQueueTest, RescheduleDuringOwnCallbackOverridesPeriod) {
  EventQueue q;
  std::vector<SimTime> fire_times;
  EventId id = kInvalidEventId;
  id = q.ScheduleRepeating(10, 10, [&] {
    // fire_times is recorded before the callback runs, so size()==2 means
    // this is the second firing (at t=20).
    if (fire_times.size() == 2) {
      EXPECT_TRUE(q.Reschedule(id, fire_times.back() + 100));
    }
  });
  for (int i = 0; i < 3; ++i) {
    EventQueue::Fired fired = q.PopNext();
    fire_times.push_back(fired.when);
    fired.fn();
    q.RestoreRepeating(fired.id, std::move(fired.fn));
  }
  q.Cancel(id);
  // Second firing pushed the third out to 20 + 100.
  EXPECT_EQ(fire_times, (std::vector<SimTime>{10, 20, 120}));
}

TEST(EventQueueTest, ShrinkToFitReleasesTrailingSlotsAndKeepsLiveOnes) {
  EventQueue q;
  // A survivor in the low slot range: shrink must not disturb it. (Scheduled
  // first so the burst occupies the trailing slots the trim can release.)
  bool survivor_fired = false;
  EventId survivor = q.Schedule(50, [&] { survivor_fired = true; });
  std::vector<EventId> burst;
  for (int i = 0; i < 2000; ++i) {
    burst.push_back(q.Schedule(static_cast<SimTime>(100 + i), [] {}));
  }
  for (EventId id : burst) {
    EXPECT_TRUE(q.Cancel(id));
  }
  const size_t before = q.slot_count();
  ASSERT_GE(before, 2000u);
  q.ShrinkToFit();
  EXPECT_LT(q.slot_count(), before);
  EXPECT_TRUE(q.IsPending(survivor));
  q.PopNext().fn();
  EXPECT_TRUE(survivor_fired);
}

TEST(EventQueueTest, ShrinkToFitSkipsBusyOrSmallQueues) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) {
    q.Schedule(static_cast<SimTime>(i), [] {});
  }
  const size_t small = q.slot_count();
  q.ShrinkToFit();  // Below the size floor: no-op.
  EXPECT_EQ(q.slot_count(), small);

  for (int i = 64; i < 2000; ++i) {
    q.Schedule(static_cast<SimTime>(i), [] {});
  }
  const size_t busy = q.slot_count();
  q.ShrinkToFit();  // Mostly pending: no-op.
  EXPECT_EQ(q.slot_count(), busy);
}

TEST(EventQueueTest, StaleIdsStayDeadAcrossShrinkAndRegrow) {
  EventQueue q;
  std::vector<EventId> retired;
  for (int i = 0; i < 1500; ++i) {
    EventId id = q.Schedule(static_cast<SimTime>(i), [] {});
    q.Cancel(id);
    retired.push_back(id);
  }
  q.ShrinkToFit();
  // Regrow over the dropped indices: generation floor keeps old ids dead.
  std::vector<EventId> fresh;
  for (int i = 0; i < 1500; ++i) {
    fresh.push_back(q.Schedule(static_cast<SimTime>(i), [] {}));
  }
  for (EventId id : retired) {
    EXPECT_FALSE(q.IsPending(id));
    EXPECT_FALSE(q.Cancel(id));
    EXPECT_FALSE(q.Reschedule(id, 1));
  }
  for (EventId id : fresh) {
    EXPECT_TRUE(q.IsPending(id));
  }
}

TEST(EventQueueTest, AutoShrinkReclaimsBurstHighWaterMark) {
  // Nobody calls ShrinkToFit() here: after a burst drains, the queue's own
  // periodic pop check must return the slot-table memory while a standing
  // repeating timer keeps running.
  EventQueue q;
  bool survivor_fired = false;
  q.Schedule(1, [&] { survivor_fired = true; });  // Slot 0.
  std::vector<EventId> burst;
  for (int i = 0; i < 6000; ++i) {
    burst.push_back(q.Schedule(static_cast<SimTime>(1000000 + i), [] {}));
  }
  // Cancel in reverse so the free-list head lands on the lowest burst slot:
  // the ticker below then reuses slot 1 and the whole tail stays trimmable.
  for (auto it = burst.rbegin(); it != burst.rend(); ++it) {
    EXPECT_TRUE(q.Cancel(*it));
  }
  int ticks = 0;
  EventId ticker = q.ScheduleRepeating(2, 1, [&] { ++ticks; });
  const size_t high_water = q.slot_count();
  ASSERT_GE(high_water, 6000u);

  for (uint32_t i = 0; i <= EventQueue::kAutoShrinkPopInterval; ++i) {
    EventQueue::Fired fired = q.PopNext();
    fired.fn();
    if (fired.repeating) {
      q.RestoreRepeating(fired.id, std::move(fired.fn));
    }
  }
  EXPECT_TRUE(survivor_fired);
  EXPECT_LT(q.slot_count(), high_water);
  EXPECT_LE(q.slot_count(), 2u);
  // The standing timer survived the shrink: same id, still firing.
  EXPECT_TRUE(q.IsPending(ticker));
  EXPECT_EQ(ticks, static_cast<int>(EventQueue::kAutoShrinkPopInterval));
  EventQueue::Fired next = q.PopNext();
  next.fn();
  EXPECT_EQ(ticks, static_cast<int>(EventQueue::kAutoShrinkPopInterval) + 1);
}

TEST(EventQueueTest, MoveOnlyCaptureSchedules) {
  EventQueue q;
  auto owned = std::make_unique<int>(41);
  int got = 0;
  q.Schedule(1, [p = std::move(owned), &got] { got = *p + 1; });
  q.PopNext().fn();
  EXPECT_EQ(got, 42);
}

// Randomized reference model: every operation lands on the queue and on an
// ordered set of (when, seq, marker) that spells out the ordering rules —
// each Schedule, ScheduleRepeating and Reschedule takes a fresh sequence
// number, and a repeating event is re-keyed to (when + period, fresh seq) at
// pop time. Every pop must agree with the model on time, id and callback.
class ReferenceModel {
 public:
  void Schedule(SimTime when) {
    const int marker = next_marker_++;
    const EventId id = q_.Schedule(when, [this, marker] { fired_marker_ = marker; });
    Add(id, marker, when, 0);
  }

  void ScheduleRepeating(SimTime first, Duration period) {
    const int marker = next_marker_++;
    const EventId id =
        q_.ScheduleRepeating(first, period, [this, marker] { fired_marker_ = marker; });
    Add(id, marker, first, period);
  }

  void CancelAt(size_t idx) {
    const size_t i = idx % live_.size();
    EXPECT_TRUE(q_.Cancel(live_[i].id));
    order_.erase(KeyOf(live_[i]));
    live_[i] = live_.back();
    live_.pop_back();
  }

  void RescheduleAt(size_t idx, SimTime when) {
    Entry& e = live_[idx % live_.size()];
    EXPECT_TRUE(q_.Reschedule(e.id, when));
    order_.erase(KeyOf(e));
    e.when = when;
    e.seq = next_seq_++;
    order_.insert(KeyOf(e));
  }

  // Pops one event and checks it against the model's minimum. Returns false
  // when either side is empty.
  bool PopOne() {
    EXPECT_EQ(q_.size(), order_.size());
    EXPECT_EQ(q_.total_scheduled(), next_seq_ - 1);
    if (q_.empty() || order_.empty()) {
      return false;
    }
    const auto [when, seq, marker] = *order_.begin();
    EXPECT_EQ(q_.NextTime(), when);
    EventQueue::Fired fired = q_.PopNext();
    fired_marker_ = -1;
    fired.fn();
    EXPECT_EQ(fired.when, when);
    EXPECT_EQ(fired_marker_, marker) << "popped the wrong event at t=" << when;
    const size_t i = FindLive(marker);
    Entry& e = live_[i];
    EXPECT_EQ(fired.id, e.id);
    EXPECT_EQ(fired.repeating, e.period > 0);
    order_.erase(order_.begin());
    if (e.period > 0) {
      e.when += e.period;
      e.seq = next_seq_++;
      order_.insert(KeyOf(e));
      q_.RestoreRepeating(fired.id, std::move(fired.fn));
    } else {
      live_[i] = live_.back();
      live_.pop_back();
    }
    return true;
  }

  EventQueue& queue() { return q_; }
  size_t live_count() const { return live_.size(); }

 private:
  struct Entry {
    EventId id;
    int marker;
    SimTime when;
    uint64_t seq;
    Duration period;
  };
  using Key = std::tuple<SimTime, uint64_t, int>;

  static Key KeyOf(const Entry& e) { return {e.when, e.seq, e.marker}; }

  void Add(EventId id, int marker, SimTime when, Duration period) {
    live_.push_back({id, marker, when, next_seq_++, period});
    order_.insert(KeyOf(live_.back()));
  }

  size_t FindLive(int marker) const {
    for (size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].marker == marker) {
        return i;
      }
    }
    ADD_FAILURE() << "model minimum not in live set";
    return 0;
  }

  EventQueue q_;
  std::set<Key> order_;
  std::vector<Entry> live_;
  uint64_t next_seq_ = 1;
  int next_marker_ = 0;
  int fired_marker_ = -1;
};

TEST(EventQueueTest, RandomChurnMatchesReferenceModel) {
  ReferenceModel m;
  uint64_t seed = 0x5eed;
  auto rnd = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 16;
  };

  // Phase 1: grow with mixed churn. Times cluster near the origin with
  // occasional far outliers, so inserts land both above and below the
  // current minimum and deep in the heap.
  // Both loops stop at the first mismatch rather than cascade.
  for (int i = 0; i < 4000 && !HasFailure(); ++i) {
    const uint64_t r = rnd();
    const SimTime when = 1 + (r % 997) * (r % 31 == 0 ? 1000 : 1);
    if (r % 17 == 0 && m.live_count() > 0) {
      m.CancelAt(rnd());
    } else if (r % 23 == 0 && m.live_count() > 0) {
      m.RescheduleAt(rnd(), when);
    } else if (r % 41 == 0) {
      m.ScheduleRepeating(when, 1 + r % 300);
    } else {
      m.Schedule(when);
    }
    if (r % 5 == 0) {
      m.PopOne();
    }
  }
  ASSERT_GT(m.live_count(), 2000u);

  // Phase 2: drain with interleaved cancels (the only way repeating events
  // leave) and a ShrinkToFit every 512 pops, which must not disturb the ids
  // or order of the survivors.
  int pops = 0;
  while (m.live_count() > 0 && !HasFailure()) {
    if (rnd() % 3 == 0) {
      m.CancelAt(rnd());
    }
    if (!m.PopOne()) {
      break;
    }
    if (++pops % 512 == 0) {
      m.queue().ShrinkToFit();
    }
  }
  EXPECT_TRUE(m.queue().empty());
  EXPECT_GT(pops, 2000);
}

TEST(EventQueueDeathTest, ZeroRepeatPeriodDies) {
  // A zero period would make a standing timer fire once and vanish: a model
  // bug, reported via TAICHI_ERROR + assert.
  EventQueue q;
  EXPECT_DEATH(q.ScheduleRepeating(10, 0, [] {}), "zero period");
}

TEST(EventQueueTest, StressManyEventsStayOrdered) {
  EventQueue q;
  // Pseudo-random times; verify nondecreasing pop order.
  uint64_t seed = 42;
  for (int i = 0; i < 10000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    q.Schedule(seed % 1000, [] {});
  }
  SimTime last = 0;
  while (!q.empty()) {
    auto fired = q.PopNext();
    EXPECT_GE(fired.when, last);
    last = fired.when;
  }
}

}  // namespace
}  // namespace taichi::sim
