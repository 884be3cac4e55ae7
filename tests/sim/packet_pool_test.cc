#include "src/sim/packet_pool.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace taichi::sim {
namespace {

hw::IoPacket Pkt(uint64_t id) {
  hw::IoPacket p;
  p.id = id;
  return p;
}

TEST(PacketPoolTest, AllocStoresAndGetReturnsPacket) {
  PacketPool pool(4);
  PacketHandle h = pool.Alloc(Pkt(7));
  ASSERT_NE(h, kInvalidPacketHandle);
  EXPECT_EQ(pool.Get(h).id, 7u);
  EXPECT_EQ(pool.in_use(), 1u);
  pool.Free(h);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(PacketPoolTest, RecycleBumpsGeneration) {
  PacketPool pool(2);
  PacketHandle first = pool.Alloc(Pkt(1));
  const uint32_t idx = PacketPool::IndexOf(first);
  const uint32_t gen = PacketPool::GenerationOf(first);
  pool.Free(first);
  // LIFO free-list: the same slot comes straight back, one generation later.
  PacketHandle second = pool.Alloc(Pkt(2));
  EXPECT_EQ(PacketPool::IndexOf(second), idx);
  EXPECT_EQ(PacketPool::GenerationOf(second), (gen + 1) & PacketPool::kGenerationMask);
  EXPECT_NE(first, second);
  EXPECT_EQ(pool.Get(second).id, 2u);
}

TEST(PacketPoolTest, ExhaustionReturnsSentinelAndCounts) {
  PacketPool pool(2);
  PacketHandle a = pool.Alloc(Pkt(1));
  PacketHandle b = pool.Alloc(Pkt(2));
  ASSERT_NE(a, kInvalidPacketHandle);
  ASSERT_NE(b, kInvalidPacketHandle);
  EXPECT_EQ(pool.Alloc(Pkt(3)), kInvalidPacketHandle);
  EXPECT_EQ(pool.Alloc(Pkt(4)), kInvalidPacketHandle);
  EXPECT_EQ(pool.exhausted(), 2u);
  EXPECT_EQ(pool.in_use(), 2u);
  // Freeing makes the slot allocatable again.
  pool.Free(a);
  EXPECT_NE(pool.Alloc(Pkt(5)), kInvalidPacketHandle);
  EXPECT_EQ(pool.exhausted(), 2u);
}

TEST(PacketPoolTest, ManyRecyclesNeverYieldSentinel) {
  // Drive one slot through every generation value twice: the bump must skip
  // the pattern that would collide with kInvalidPacketHandle.
  PacketPool pool(1);
  for (uint32_t i = 0; i < 2 * (PacketPool::kGenerationMask + 1); ++i) {
    PacketHandle h = pool.Alloc(Pkt(i));
    ASSERT_NE(h, kInvalidPacketHandle);
    EXPECT_EQ(pool.Get(h).id, i);
    pool.Free(h);
  }
}

TEST(PacketPoolDeathTest, StaleHandleGetDies) {
  // Use-after-free must fail loudly, not read the slot's next tenant.
  PacketPool pool(4);
  PacketHandle h = pool.Alloc(Pkt(1));
  pool.Free(h);
  PacketHandle reused = pool.Alloc(Pkt(2));
  ASSERT_EQ(PacketPool::IndexOf(reused), PacketPool::IndexOf(h));
  EXPECT_DEATH({ (void)pool.Get(h); }, "stale");
}

TEST(PacketPoolDeathTest,SentinelGetDies) {
  PacketPool pool(4);
  EXPECT_DEATH({ (void)pool.Get(kInvalidPacketHandle); }, "stale");
}

TEST(PacketPoolDeathTest,DoubleFreeDies) {
  PacketPool pool(4);
  PacketHandle h = pool.Alloc(Pkt(1));
  pool.Free(h);
  EXPECT_DEATH({ pool.Free(h); }, "stale");
}

TEST(PacketPoolTest, DeterministicHandleSequence) {
  // Two pools walked through the same alloc/free script hand out identical
  // handles — the property that keeps serial and parallel fleet runs
  // byte-identical (each node owns its pool, so per-node histories match).
  auto script = [](PacketPool& pool) {
    std::vector<PacketHandle> trace;
    std::vector<PacketHandle> live;
    for (uint64_t round = 0; round < 50; ++round) {
      for (uint64_t i = 0; i < 6; ++i) {
        PacketHandle h = pool.Alloc(Pkt(round * 6 + i));
        trace.push_back(h);
        if (h != kInvalidPacketHandle) live.push_back(h);
      }
      // Free every other live handle, oldest first.
      std::vector<PacketHandle> keep;
      for (size_t i = 0; i < live.size(); ++i) {
        if (i % 2 == 0) {
          pool.Free(live[i]);
        } else {
          keep.push_back(live[i]);
        }
      }
      live.swap(keep);
    }
    return trace;
  };
  PacketPool a(16);
  PacketPool b(16);
  EXPECT_EQ(script(a), script(b));
}

// The eager arena the lazy one replaced, reduced to its handle arithmetic:
// every slot exists from construction and the free list starts full,
// pushed in descending order so the first Alloc hands out slot 0.
class EagerReferencePool {
 public:
  explicit EagerReferencePool(uint32_t capacity) : generation_(capacity, 0) {
    for (uint32_t i = capacity; i-- > 0;) {
      free_.push_back(i);
    }
  }

  PacketHandle Alloc() {
    if (free_.empty()) {
      ++exhausted_;
      return kInvalidPacketHandle;
    }
    const uint32_t idx = free_.back();
    free_.pop_back();
    return idx | (generation_[idx] << PacketPool::kIndexBits);
  }

  void Free(PacketHandle h) {
    const uint32_t idx = PacketPool::IndexOf(h);
    generation_[idx] = (generation_[idx] + 1) & PacketPool::kGenerationMask;
    free_.push_back(idx);
  }

  size_t in_use() const { return generation_.size() - free_.size(); }
  uint64_t exhausted() const { return exhausted_; }

 private:
  std::vector<uint32_t> generation_;
  std::vector<uint32_t> free_;
  uint64_t exhausted_ = 0;
};

TEST(PacketPoolTest, LazyPoolMatchesEagerReferenceStepForStep) {
  // Random alloc/free scripts that alternate between filling phases (which
  // run the pool dry) and draining phases (which free after exhaustion):
  // the lazy pool must hand out exactly the eager pool's handles.
  for (uint32_t capacity : {1u, 2u, 7u, 64u}) {
    SCOPED_TRACE(capacity);
    PacketPool pool(capacity);
    EagerReferencePool ref(capacity);
    std::mt19937_64 rng(capacity * 7919 + 1);
    std::vector<PacketHandle> live;
    bool freed_after_exhaustion = false;
    for (uint64_t step = 0; step < 20000; ++step) {
      const bool filling = (step / 150) % 2 == 0;
      const bool alloc = live.empty() || rng() % 10 < (filling ? 8u : 3u);
      if (alloc) {
        const PacketHandle h = pool.Alloc(Pkt(step));
        ASSERT_EQ(h, ref.Alloc()) << "step " << step;
        if (h != kInvalidPacketHandle) {
          live.push_back(h);
        }
      } else {
        const size_t pick = rng() % live.size();
        const PacketHandle h = live[pick];
        live[pick] = live.back();
        live.pop_back();
        pool.Free(h);
        ref.Free(h);
        freed_after_exhaustion |= ref.exhausted() > 0;
      }
      ASSERT_EQ(pool.exhausted(), ref.exhausted()) << "step " << step;
      ASSERT_EQ(pool.in_use(), ref.in_use()) << "step " << step;
    }
    EXPECT_GT(ref.exhausted(), 0u);
    EXPECT_TRUE(freed_after_exhaustion);
    EXPECT_EQ(pool.high_water(), capacity);
    EXPECT_EQ(pool.capacity(), capacity);
  }
}

TEST(PacketPoolTest, SlotsAreConstructedOnFirstUse) {
  PacketPool pool(PacketPool::kMaxCapacity);
  EXPECT_EQ(pool.capacity(), PacketPool::kMaxCapacity);
  EXPECT_EQ(pool.high_water(), 0u);
  constexpr uint32_t kAllocs = 1000;
  for (uint32_t i = 0; i < kAllocs; ++i) {
    const PacketHandle h = pool.Alloc(Pkt(i));
    ASSERT_EQ(PacketPool::IndexOf(h), i);
  }
  EXPECT_EQ(pool.high_water(), kAllocs);
  EXPECT_EQ(pool.in_use(), kAllocs);
}

TEST(PacketPoolDeathTest, HandleBeyondHighWaterDies) {
  // Well-formed (generation 0, index inside capacity) but naming a slot
  // that was never constructed.
  PacketPool pool(8);
  (void)pool.Alloc(Pkt(1));
  (void)pool.Alloc(Pkt(2));
  ASSERT_EQ(pool.high_water(), 2u);
  EXPECT_DEATH({ (void)pool.Get(PacketHandle{2}); }, "stale");
  EXPECT_DEATH({ pool.Free(PacketHandle{5}); }, "stale");
}

TEST(PacketPoolTest, CapacityClampedToMax) {
  PacketPool pool(0);  // Degenerate request still yields a usable pool.
  EXPECT_GE(pool.capacity(), 1u);
  PacketHandle h = pool.Alloc(Pkt(1));
  EXPECT_NE(h, kInvalidPacketHandle);
}

}  // namespace
}  // namespace taichi::sim
