// Allocation/free provenance for memory-error forensics (the triage layer
// over the paper's detection machinery): a table of live objects plus a
// bounded FIFO ring of recently-freed ones, each stamped with the guest PC,
// instruction index, cycle and metrics epoch of its birth and death.
//
// The VM feeds events from the malloc/free host calls when a ring is
// attached (rfrun --error-report); a detected OOB/UAF/double-free report is
// then joined against the ring so the error message can say which object
// was hit, where it was allocated, and — for UAFs — where it died.
//
// Sizing/eviction: the live table is bounded by the guest's live heap (one
// entry per live allocation, exact — frees need it). The freed ring keeps
// the most recent `capacity` frees and evicts FIFO; evictions are counted,
// never silent, so "no provenance found" can be distinguished from
// "provenance aged out". A pointer has at most one freed entry that is not
// cleared (reallocating it clears the entry), and an index from pointer to
// that entry keeps the per-malloc/free work O(1); only the report-time
// lookups (FindFreed, Nearest) scan the ring.
#ifndef REDFAT_SRC_HEAP_FORENSICS_H_
#define REDFAT_SRC_HEAP_FORENSICS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>

#include "src/vm/vm.h"

namespace redfat {

// One object's birth (and, once freed, death) provenance.
struct AllocProvenance {
  uint64_t ptr = 0;
  uint64_t size = 0;
  uint64_t alloc_pc = 0;           // guest rip of the malloc host call
  uint64_t alloc_instruction = 0;  // instruction index at allocation
  uint64_t alloc_cycles = 0;
  uint64_t alloc_epoch = 0;        // --metrics-epoch ordinal (0 when unused)
  bool freed = false;
  uint64_t free_pc = 0;
  uint64_t free_instruction = 0;
  uint64_t free_cycles = 0;
  uint64_t free_epoch = 0;
};

class ForensicRing : public HeapObserver {
 public:
  static constexpr size_t kDefaultCapacity = 1024;  // freed-ring bound

  explicit ForensicRing(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // HeapObserver: fed by the VM's malloc/free host calls.
  void OnAlloc(uint64_t ptr, uint64_t size, uint64_t pc, uint64_t instruction,
               uint64_t cycles, uint64_t epoch) override;
  void OnFree(uint64_t ptr, uint64_t pc, uint64_t instruction, uint64_t cycles,
              uint64_t epoch) override;
  bool WasFreed(uint64_t ptr) const override { return FreedAt(ptr) != nullptr; }
  bool DistanceTo(uint64_t addr, uint64_t* distance) const override {
    const Proximity p = Nearest(addr);
    if (p.object == nullptr) {
      return false;
    }
    *distance = p.distance;
    return true;
  }

  // The live object whose [ptr, ptr+size) contains `addr`, or null.
  const AllocProvenance* FindLive(uint64_t addr) const;
  // The most recently freed object containing `addr` still in the ring, or
  // null (evicted or never tracked).
  const AllocProvenance* FindFreed(uint64_t addr) const;
  // Exact-base-pointer variant of FindFreed: non-null means `ptr` was freed
  // and not reallocated since — the double-free witness.
  const AllocProvenance* FreedAt(uint64_t ptr) const;

  // Distance diagnostics for OOB reports: how far `addr` is from the nearest
  // tracked object's payload. `distance` is 0 when addr is inside a tracked
  // object, otherwise the gap in bytes to the closest payload edge;
  // `past_end` says the miss was above the object (the classic off-by-N).
  struct Proximity {
    const AllocProvenance* object = nullptr;
    uint64_t distance = 0;
    bool past_end = false;
  };
  Proximity Nearest(uint64_t addr) const;

  size_t live_count() const { return live_.size(); }
  size_t freed_count() const { return freed_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evicted() const { return evicted_; }
  const std::map<uint64_t, AllocProvenance>& live() const { return live_; }
  const std::deque<AllocProvenance>& freed() const { return freed_; }

 private:
  size_t capacity_;
  std::map<uint64_t, AllocProvenance> live_;  // keyed by base pointer
  std::deque<AllocProvenance> freed_;         // oldest first; bounded
  // Sequence number of each pointer's un-cleared freed_ entry; freed_[i]
  // has sequence number evicted_ + i.
  std::unordered_map<uint64_t, uint64_t> freed_seq_;
  uint64_t evicted_ = 0;
};

}  // namespace redfat

#endif  // REDFAT_SRC_HEAP_FORENSICS_H_
