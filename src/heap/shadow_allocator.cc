#include "src/heap/shadow_allocator.h"

#include "src/shadow/shadow.h"

namespace redfat {

AllocOutcome ShadowRedFatAllocator::Malloc(Memory& mem, uint64_t size) {
  const uint64_t total = size + kRedzoneSize;
  AllocOutcome out;
  uint64_t slot = 0;
  uint64_t cycles = 0;
  if (total <= kMaxLowFatSize && total >= size) {
    const LowFatAllocResult lf = lowfat_.Alloc(mem, total);
    slot = lf.slot;
    cycles = lf.cycles;
  }
  if (slot == 0) {
    slot = legacy_.Alloc(mem, total);
    if (slot == 0) {
      out.cycles = heapcost::kLegacyMalloc;
      return out;
    }
  }
  const uint64_t ptr = slot + kRedzoneSize;
  ShadowMarkMalloc(mem, ptr, size);
  objects_[ptr] = Object{size, true};
  // O(size) shadow marking is the scheme's intrinsic cost.
  out.ptr = ptr;
  out.cycles = cycles + heapcost::ShadowMarkCycles(size + 2 * kRedzoneSize);
  return out;
}

FreeOutcome ShadowRedFatAllocator::Free(Memory& mem, uint64_t ptr) {
  if (ptr == 0) {
    return FreeOutcome{heapcost::kFreePush};
  }
  auto it = objects_.find(ptr);
  if (it == objects_.end() || !it->second.live) {
    // Not a live payload: a guest double free (freed and not since
    // reallocated) or an invalid one. Report it and leave the heap untouched.
    FreeOutcome bad{heapcost::kFreePush};
    bad.corrupted = true;
    bad.corrupt_kind =
        it != objects_.end() ? ErrorKind::kDoubleFree : ErrorKind::kFreelistCorruption;
    bad.corrupt_addr = ptr;
    return bad;
  }
  const uint64_t size = it->second.size;
  it->second.live = false;
  ShadowMarkFree(mem, ptr, size);
  const uint64_t slot = ptr - kRedzoneSize;
  uint64_t cycles = 0;
  if (LowFatSize(slot) != 0) {
    cycles = lowfat_.Free(mem, slot).cycles;
  } else {
    legacy_.Free(slot);
    cycles = heapcost::kFreePush;
  }
  return FreeOutcome{cycles + heapcost::ShadowMarkCycles(size)};
}

}  // namespace redfat
