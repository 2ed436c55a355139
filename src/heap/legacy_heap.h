// A glibc-like guest allocator.
//
// Serves three roles:
//   * the allocator bound for *uninstrumented baseline* runs (plain malloc);
//   * the fallback for allocations larger than the biggest low-fat size
//     class (such objects become non-fat and lose low-fat protection, as in
//     the paper's LowFat runtime);
//   * the foundation of the Memcheck-style baseline allocator (dbi module).
//
// Layout per chunk (all in the non-fat legacy region):
//     [size u64][pad u64][payload ...]     returned ptr = chunk + 16
#ifndef REDFAT_SRC_HEAP_LEGACY_HEAP_H_
#define REDFAT_SRC_HEAP_LEGACY_HEAP_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/heap/cost_model.h"
#include "src/isa/abi.h"
#include "src/vm/allocator.h"
#include "src/vm/memory.h"

namespace redfat {

class LegacyHeap {
 public:
  // `padding` adds extra bytes before and after each payload (used by the
  // Memcheck-style allocator to make room for redzones).
  explicit LegacyHeap(uint64_t padding = 0) : padding_(padding) {}

  // Returns the payload pointer, or 0 on exhaustion.
  uint64_t Alloc(Memory& mem, uint64_t size);
  // Frees a live payload pointer returned by Alloc and returns true. Any
  // other pointer leaves the heap untouched and returns false, with *error
  // (when given) set to kDoubleFree for a payload freed and not since
  // reallocated, else to kFreelistCorruption, the invalid-free kind.
  bool Free(uint64_t ptr, ErrorKind* error = nullptr);
  // Was this pointer handed out (and not yet freed)?
  bool IsLive(uint64_t ptr) const {
    const auto it = chunks_.find(ptr);
    return it != chunks_.end() && it->second.live;
  }

 private:
  struct Chunk {
    uint64_t size = 0;  // chunk bytes, header and padding included
    bool live = false;
  };
  uint64_t padding_;
  uint64_t bump_ = kLegacyHeapBase + 64;
  std::unordered_map<uint64_t, std::vector<uint64_t>> free_lists_;  // by chunk size
  std::unordered_map<uint64_t, Chunk> chunks_;  // payload ptr -> chunk, ever carved
};

// GuestAllocator binding for baseline (uninstrumented) runs.
class GlibcLikeAllocator : public GuestAllocator {
 public:
  AllocOutcome Malloc(Memory& mem, uint64_t size) override {
    AllocOutcome out;
    out.ptr = heap_.Alloc(mem, size);
    out.cycles = heapcost::kLegacyMalloc;
    return out;
  }
  FreeOutcome Free(Memory& mem, uint64_t ptr) override {
    (void)mem;
    // A double or invalid free is the guest's error to report, not a host
    // abort (glibc aborts the guest, too).
    FreeOutcome out{heapcost::kLegacyFree};
    if (ptr != 0 && !heap_.Free(ptr, &out.corrupt_kind)) {
      out.corrupted = true;
      out.corrupt_addr = ptr;
    }
    return out;
  }
  const char* name() const override { return "glibc-like"; }

  LegacyHeap& heap() { return heap_; }

 private:
  LegacyHeap heap_;
};

}  // namespace redfat

#endif  // REDFAT_SRC_HEAP_LEGACY_HEAP_H_
