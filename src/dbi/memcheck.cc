#include "src/dbi/memcheck.h"

#include "src/dbi/shadow_check.h"
#include "src/shadow/shadow.h"

namespace redfat {

AllocOutcome Memcheck::Malloc(Memory& mem, uint64_t size) {
  const uint64_t ptr = heap_.Alloc(mem, size);
  if (ptr == 0) {
    return AllocOutcome{0, heapcost::kLegacyMalloc};
  }
  ShadowMarkMalloc(mem, ptr, size);
  sizes_[ptr] = size;
  return AllocOutcome{ptr, heapcost::kLegacyMalloc + costs_.alloc_extra};
}

FreeOutcome Memcheck::Free(Memory& mem, uint64_t ptr) {
  if (ptr == 0) {
    return FreeOutcome{heapcost::kLegacyFree};
  }
  auto it = sizes_.find(ptr);
  if (it == sizes_.end()) {
    // Not a live payload: a guest double free (the shadow still says
    // freed) or an invalid one. Report it and leave the heap untouched.
    FreeOutcome bad{heapcost::kLegacyFree + costs_.alloc_extra};
    bad.corrupted = true;
    bad.corrupt_kind = ShadowAt(mem, ptr, 1) == GuestShadow::kFreed
                           ? ErrorKind::kDoubleFree
                           : ErrorKind::kFreelistCorruption;
    bad.corrupt_addr = ptr;
    return bad;
  }
  ShadowMarkFree(mem, ptr, it->second);
  sizes_.erase(it);
  quarantine_.push_back(ptr);
  if (quarantine_.size() > quarantine_blocks_) {
    heap_.Free(quarantine_.front());
    quarantine_.pop_front();
  }
  return FreeOutcome{heapcost::kLegacyFree + costs_.alloc_extra};
}

RunOutcome RunMemcheck(const BinaryImage& image, const RunConfig& config,
                       MemcheckCostModel costs) {
  Vm vm(config.model);
  Memcheck memcheck(costs);
  ShadowCheckObserver observer(costs);
  vm.set_allocator(&memcheck);
  RunConfig c = config;
  c.observer = &observer;
  return RunBound(vm, {&image}, c);
}

}  // namespace redfat
