// The ASAN-style alternative runtime (paper §4.1's state_shadow scheme),
// for the redzone-implementation ablation.
//
// Objects still come from the low-fat heap (so the LowFat component can
// recover class bounds from pointers), and still carry a 16-byte leading
// redzone — but the Allocated/Redzone/Free state lives in the *separate
// guest shadow map* (src/shadow/shadow.h) instead of inside the redzone.
// Consequences the ablation measures:
//
//   * no malloc-SIZE metadata => overflows into allocation padding are
//     undetectable (the paper's Fig. 3/§4.2 argument for metadata-in-redzone);
//   * every malloc/free pays O(size) shadow marking;
//   * the shadow map occupies extra guest pages.
#ifndef REDFAT_SRC_HEAP_SHADOW_ALLOCATOR_H_
#define REDFAT_SRC_HEAP_SHADOW_ALLOCATOR_H_

#include <cstdint>
#include <unordered_map>

#include "src/heap/cost_model.h"
#include "src/heap/legacy_heap.h"
#include "src/heap/lowfat.h"
#include "src/vm/allocator.h"

namespace redfat {

class ShadowRedFatAllocator : public GuestAllocator {
 public:
  explicit ShadowRedFatAllocator(unsigned quarantine_slots = 64)
      : lowfat_(quarantine_slots) {}

  AllocOutcome Malloc(Memory& mem, uint64_t size) override;
  FreeOutcome Free(Memory& mem, uint64_t ptr) override;
  const char* name() const override { return "libredfat-shadow"; }

 private:
  LowFatHeap lowfat_;
  LegacyHeap legacy_;
  struct Object {
    uint64_t size = 0;  // user size
    bool live = false;
  };
  std::unordered_map<uint64_t, Object> objects_;  // user ptr -> object, ever allocated
};

}  // namespace redfat

#endif  // REDFAT_SRC_HEAP_SHADOW_ALLOCATOR_H_
