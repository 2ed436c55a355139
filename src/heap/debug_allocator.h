// The debug hardening tier's allocator (core/policy.h, RuntimeKind::
// kRedFatDebug): libredfat semantics PLUS guest shadow-map maintenance.
//
// Lowfat-metadata-instrumented binaries need the in-redzone state/size
// metadata that RedFatAllocator writes; memcheck-grade shadow-state
// classification of *uninstrumented* accesses (src/dbi/shadow_check.h)
// needs the guest shadow map (src/shadow/shadow.h) that
// ShadowRedFatAllocator maintains. Neither alone supports both, so the
// debug tier's allocator does both: every object carries the metadata
// redzone (checks work unchanged) and its redzone/payload/freed states are
// marked in the shadow map for the observer. The extra O(size) marking
// cost per malloc/free is charged like the shadow ablation's — debug is
// not a production configuration.
#ifndef REDFAT_SRC_HEAP_DEBUG_ALLOCATOR_H_
#define REDFAT_SRC_HEAP_DEBUG_ALLOCATOR_H_

#include <cstdint>
#include <unordered_map>

#include "src/heap/redfat_allocator.h"

namespace redfat {

class DebugRedFatAllocator : public RedFatAllocator {
 public:
  explicit DebugRedFatAllocator(const RheapOptions& opts) : RedFatAllocator(opts) {}
  explicit DebugRedFatAllocator(unsigned quarantine_slots = 64)
      : RedFatAllocator(quarantine_slots) {}

  AllocOutcome Malloc(Memory& mem, uint64_t size) override;
  FreeOutcome Free(Memory& mem, uint64_t ptr) override;
  const char* name() const override { return "libredfat-debug"; }

 private:
  std::unordered_map<uint64_t, uint64_t> sizes_;  // user ptr -> user size
};

}  // namespace redfat

#endif  // REDFAT_SRC_HEAP_DEBUG_ALLOCATOR_H_
