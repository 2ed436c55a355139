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
// slot per live allocation, exact — frees need it). The freed ring keeps
// the most recent `capacity` frees and evicts FIFO; evictions are counted,
// never silent, so "no provenance found" can be distinguished from
// "provenance aged out".
//
// Cost: a pointer is live, freed (it has an un-cleared ring entry;
// reallocating it clears the entry) or untracked, never two at once. One
// hash index maps each tracked base pointer to its live slot or to the
// sequence number of its ring entry, so every malloc and free is one index
// lookup plus O(1) slot and ring work (a free that evicts the oldest ring
// entry also erases that entry's key), and FreedAt/WasFreed — the
// double-free pre-check of every guest free — are O(1). Live slots are
// reused through a free list; nothing is kept in address order. The
// address lookups — FindLive, FindFreed, Nearest — scan the live slots
// and the ring instead. They run only when an error is reported, which
// ends the run under Policy::kHarden, so the heap events that every run
// makes stay cheap and the rare report pays the scan.
#ifndef REDFAT_SRC_HEAP_FORENSICS_H_
#define REDFAT_SRC_HEAP_FORENSICS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

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

  // The lookups below return pointers into the ring, valid until its next
  // OnAlloc or OnFree.
  //
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

  size_t live_count() const { return slots_.size() - free_slots_.size(); }
  size_t freed_count() const { return freed_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evicted() const { return evicted_; }
  const std::deque<AllocProvenance>& freed() const { return freed_; }

 private:
  // An index value: (slot << 1) for a live pointer, (sequence << 1) | 1 for
  // a pointer whose un-cleared ring entry is freed_[sequence - evicted_].
  static constexpr uint64_t kFreedTag = 1;

  // The live objects with the greatest base <= addr and the least base >
  // addr (each null when there is none): a scan of the live slots.
  struct Neighbours {
    const AllocProvenance* below = nullptr;
    const AllocProvenance* above = nullptr;
  };
  Neighbours LiveNeighbours(uint64_t addr) const;

  size_t capacity_;
  std::vector<AllocProvenance> slots_;  // live objects; ptr 0 marks a free slot
  std::vector<uint64_t> free_slots_;
  std::deque<AllocProvenance> freed_;  // oldest first; bounded
  uint64_t evicted_ = 0;
  // Declared last so it is destroyed first. Its ~capacity small nodes go to
  // glibc's fast bins, and the larger frees of freed_'s chunks that follow
  // consolidate them. Destroyed after freed_, they would stay binned and
  // make the thread's next allocation-heavy work (heap-debug's next
  // rewrite) ~25 % slower.
  std::unordered_map<uint64_t, uint64_t> index_;  // base pointer -> tagged value
};

}  // namespace redfat

#endif  // REDFAT_SRC_HEAP_FORENSICS_H_
