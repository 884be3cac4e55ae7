// Bounded packet arena with generation-tagged handles — the simulator's
// equivalent of a DPDK mbuf pool.
#ifndef SRC_SIM_PACKET_POOL_H_
#define SRC_SIM_PACKET_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/hw/io_packet.h"

namespace taichi::sim {

// A packet's identity while it is in flight: 20 bits of slot index plus 12
// bits of generation. Rings, event captures and batch sinks move these 4-byte
// values instead of copying the ~80-byte IoPacket at every hop.
using PacketHandle = uint32_t;

// Returned by Alloc when the pool is exhausted; never a valid handle (the
// all-ones generation is skipped by the generation bump).
inline constexpr PacketHandle kInvalidPacketHandle = 0xffffffffu;

// Bounded arena of IoPacket slots with a LIFO free-list. One pool per
// simulated node, owned by hw::Machine, so parallel fleet epochs never share
// an arena and the serial-vs-parallel byte-identity contract holds trivially.
//
// Handles are generation-tagged: Free bumps the slot's 12-bit generation, so
// a stale handle (use-after-free) fails validation loudly instead of silently
// reading the slot's next tenant. Exhaustion is not fatal — Alloc returns
// kInvalidPacketHandle and counts it; the RX path treats that as a drop, the
// same way a real NIC sheds load when its mbuf pool runs dry.
//
// All storage is reserved at construction, constructed on first use, never
// reallocated: Alloc reuses the most recently freed slot and constructs the
// next one only when none is free. Untouched capacity costs no resident
// memory, and since Alloc/Free/Get never allocate, slot references stay
// stable. Handles come out as slots 0, 1, 2, ... in order, with freed slots
// reused LIFO before any new one: a pure function of the alloc/free order.
class PacketPool {
 public:
  static constexpr uint32_t kIndexBits = 20;
  static constexpr uint32_t kGenerationBits = 12;
  static constexpr uint32_t kMaxCapacity = 1u << kIndexBits;
  static constexpr uint32_t kIndexMask = kMaxCapacity - 1;
  static constexpr uint32_t kGenerationMask = (1u << kGenerationBits) - 1;

  explicit PacketPool(size_t capacity);

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Takes a free slot (or constructs the next one), copies `pkt` into it and
  // returns its handle, or returns kInvalidPacketHandle (and counts the
  // exhaustion) when every slot up to capacity() is in use.
  PacketHandle Alloc(const hw::IoPacket& pkt);

  // Returns the packet behind a live handle. A stale or malformed handle is
  // a use-after-free bug in the caller: logged via TAICHI_ERROR and fatal.
  hw::IoPacket& Get(PacketHandle h) { return slots_[CheckedIndex(h)].pkt; }
  const hw::IoPacket& Get(PacketHandle h) const {
    return slots_[CheckedIndex(h)].pkt;
  }

  // Returns the slot to the free-list and bumps its generation so every
  // outstanding copy of `h` goes stale.
  void Free(PacketHandle h);

  size_t capacity() const { return capacity_; }
  size_t in_use() const { return slots_.size() - free_.size(); }
  // Slots constructed so far: the peak of in_use() over the pool's life.
  size_t high_water() const { return slots_.size(); }
  // Alloc calls that failed for want of a free slot.
  uint64_t exhausted() const { return exhausted_; }

  static constexpr uint32_t IndexOf(PacketHandle h) { return h & kIndexMask; }
  static constexpr uint32_t GenerationOf(PacketHandle h) {
    return (h >> kIndexBits) & kGenerationMask;
  }

 private:
  struct Slot {
    hw::IoPacket pkt;
    uint32_t generation = 0;
  };

  uint32_t CheckedIndex(PacketHandle h) const;
  [[noreturn]] void DieStale(PacketHandle h) const;

  size_t capacity_;
  std::vector<Slot> slots_;     // Constructed slots; capacity_ reserved.
  std::vector<uint32_t> free_;  // LIFO stack of freed slot indices.
  uint64_t exhausted_ = 0;
};

}  // namespace taichi::sim

#endif  // SRC_SIM_PACKET_POOL_H_
