#include "src/heap/debug_allocator.h"

#include "src/shadow/shadow.h"

namespace redfat {

AllocOutcome DebugRedFatAllocator::Malloc(Memory& mem, uint64_t size) {
  AllocOutcome out = RedFatAllocator::Malloc(mem, size);
  if (out.ptr == 0) {
    return out;
  }
  ShadowMarkMalloc(mem, out.ptr, size);
  sizes_[out.ptr] = size;
  // O(size) shadow marking
  out.cycles += heapcost::ShadowMarkCycles(size + 2 * kRedzoneSize);
  return out;
}

FreeOutcome DebugRedFatAllocator::Free(Memory& mem, uint64_t ptr) {
  if (ptr == 0) {
    return RedFatAllocator::Free(mem, ptr);
  }
  auto it = sizes_.find(ptr);
  if (it == sizes_.end()) {
    // Invalid free (never handed out, or already freed): let the base
    // class diagnose it; there is no shadow range to clear.
    return RedFatAllocator::Free(mem, ptr);
  }
  const uint64_t size = it->second;
  sizes_.erase(it);
  ShadowMarkFree(mem, ptr, size);
  FreeOutcome out = RedFatAllocator::Free(mem, ptr);
  out.cycles += heapcost::ShadowMarkCycles(size);
  return out;
}

}  // namespace redfat
