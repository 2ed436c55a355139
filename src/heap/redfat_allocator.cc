#include "src/heap/redfat_allocator.h"

#include "src/support/check.h"

namespace redfat {

AllocOutcome RedFatAllocator::Malloc(Memory& mem, uint64_t size) {
  const uint64_t total = size + kRedzoneSize;
  AllocOutcome out;
  uint64_t slot = 0;
  if (total <= kMaxLowFatSize && total >= size /* overflow guard */) {
    const LowFatAllocResult lf = lowfat_.Alloc(mem, total);
    out.cycles += lf.cycles;
    if (lf.corrupted) {
      out.corrupted = true;
      out.corrupt_kind = ErrorKind::kFreelistCorruption;
      out.corrupt_addr = lf.corrupt_addr;
    }
    slot = lf.slot;
    if (lf.status == LowFatAllocStatus::kExhausted) {
      ++stats_.exhausted_fallbacks;
    }
  } else {
    out.cycles += heapcost::kBumpAlloc;  // the refused class lookup
  }
  if (slot == 0) {
    // Huge (or exhausted-class) allocation: legacy fallback. The object is
    // non-fat; checks over-approximate its bounds (i.e., skip it).
    slot = legacy_.Alloc(mem, total);
    if (slot == 0) {
      return out;
    }
    ++stats_.fallback_allocs;
  }
  // Metadata lives inside the redzone: state/size merged as one u64.
  mem.WriteU64(slot, size);
  out.ptr = slot + kRedzoneSize;
  out.cycles += heapcost::kRedzoneMeta;
  return out;
}

FreeOutcome RedFatAllocator::Free(Memory& mem, uint64_t ptr) {
  FreeOutcome out;
  if (ptr == 0) {
    out.cycles = heapcost::kFreePush;
    return out;
  }
  const uint64_t slot = ptr - kRedzoneSize;
  const uint64_t class_bytes = LowFatSize(slot);
  if (class_bytes != 0) {
    if (slot % class_bytes != 0) {
      // Overlapping/interior free: `ptr` is not the base of any slot. Never
      // push it — that is exactly how freelist cycles are forged. Diagnosed
      // under prot-freelist, silently dropped otherwise.
      out.cycles = heapcost::kFreePush;
      if (opts_.prot_freelist) {
        out.corrupted = true;
        out.corrupt_kind = ErrorKind::kFreelistCorruption;
        out.corrupt_addr = ptr;
      }
      return out;
    }
    if (opts_.prot_freelist && mem.ReadU64(slot) == 0) {
      // Proper slot base whose metadata already says Freed: a double free
      // (or a free of a never-allocated slot) that the VM's forensics
      // interception did not catch.
      out.corrupted = true;
      out.corrupt_kind = ErrorKind::kDoubleFree;
      out.corrupt_addr = ptr;
      out.cycles = heapcost::kFreePush;
      return out;
    }
    // Mark Free: SIZE == 0 makes every subsequent bounds check fail (§4.2).
    mem.WriteU64(slot, 0);
    const LowFatFreeResult lf = lowfat_.Free(mem, slot);
    out.cycles = lf.cycles + heapcost::kRedzoneMeta;
    if (lf.corrupted) {
      out.corrupted = true;
      out.corrupt_kind = ErrorKind::kFreelistCorruption;
      out.corrupt_addr = lf.corrupt_addr;
    }
    return out;
  }
  if (!legacy_.Free(slot, &out.corrupt_kind)) {
    // A double or invalid free of a non-fat object: reported, not a host
    // abort, and the metadata is left as it is.
    out.corrupted = true;
    out.corrupt_addr = ptr;
    out.cycles = heapcost::kFreePush;
    return out;
  }
  mem.WriteU64(slot, 0);
  out.cycles = heapcost::kFreePush + heapcost::kRedzoneMeta;
  return out;
}

GuardOutcome RedFatAllocator::GuardRange(Memory& mem, uint64_t addr, uint64_t len) {
  GuardOutcome out;
  if (!opts_.guard_memcpy || len == 0) {
    return out;
  }
  out.cycles = heapcost::kGuardRange;
  ++stats_.guard_checks;
  stats_.guard_cycles += out.cycles;
  const uint64_t size = LowFatSize(addr);
  if (size == 0) {
    return out;  // non-fat: nothing known about the object
  }
  const uint64_t base = LowFatBase(addr);
  const uint64_t payload = base + kRedzoneSize;
  if (addr < payload) {
    // The range starts inside the redzone/metadata words.
    out.violation = true;
    out.kind = ErrorKind::kBounds;
    out.addr = addr;
  } else {
    const uint64_t object_size = mem.ReadU64(base);
    if (object_size == 0) {
      out.violation = true;
      out.kind = ErrorKind::kUaf;  // Freed state: the object is dead
      out.addr = addr;
    } else if (addr + len > payload + object_size || addr + len < addr) {
      out.violation = true;
      out.kind = ErrorKind::kBounds;
      out.addr = payload + object_size;  // first out-of-bounds byte
    }
  }
  if (out.violation) {
    ++stats_.guard_violations;
  }
  return out;
}

}  // namespace redfat
