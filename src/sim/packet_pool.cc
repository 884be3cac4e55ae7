#include "src/sim/packet_pool.h"

#include <algorithm>
#include <cstdlib>

#include "src/sim/logging.h"

namespace taichi::sim {

PacketPool::PacketPool(size_t capacity)
    : capacity_(std::clamp<size_t>(capacity, 1, kMaxCapacity)) {
  slots_.reserve(capacity_);
  free_.reserve(capacity_);
}

PacketHandle PacketPool::Alloc(const hw::IoPacket& pkt) {
  // Freshly freed slots are reused first, which keeps the working set
  // cache-hot under steady load; a new slot is built only when none is free.
  uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else if (slots_.size() < capacity_) {
    idx = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    ++exhausted_;
    return kInvalidPacketHandle;
  }
  Slot& s = slots_[idx];
  s.pkt = pkt;
  return idx | (s.generation << kIndexBits);
}

void PacketPool::Free(PacketHandle h) {
  uint32_t idx = CheckedIndex(h);
  Slot& s = slots_[idx];
  // Bump the generation, skipping the value that would make a full-mask
  // handle collide with kInvalidPacketHandle for the last slot.
  s.generation = (s.generation + 1) & kGenerationMask;
  if (idx == kIndexMask && s.generation == kGenerationMask) {
    s.generation = 0;
  }
  free_.push_back(idx);
}

uint32_t PacketPool::CheckedIndex(PacketHandle h) const {
  uint32_t idx = IndexOf(h);
  if (h == kInvalidPacketHandle || idx >= slots_.size() ||
      GenerationOf(h) != slots_[idx].generation) {
    DieStale(h);
  }
  return idx;
}

void PacketPool::DieStale(PacketHandle h) const {
  TAICHI_ERROR(0, "PacketPool: stale or invalid handle 0x%08x (slot %u gen %u, pool gen %u)",
               h, IndexOf(h), GenerationOf(h),
               IndexOf(h) < slots_.size() ? slots_[IndexOf(h)].generation : 0u);
  std::abort();
}

}  // namespace taichi::sim
