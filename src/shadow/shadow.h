// The guest shadow map: the ASAN/Memcheck-style state_shadow scheme
// (paper §2.1, §4.1),
//
//     state_shadow(ptr) = *(SHADOW_MAP + ptr/8)
//
// one GuestShadow byte per 8-byte granule at kGuestShadowBase (isa/abi.h),
// in guest memory. It is the one shadow-state implementation: the shadow
// ablation's allocator marks it and its rewritten check bodies read it in
// guest code; the debug tier's allocator and the Memcheck baseline mark it
// and the DBI shadow-check observer (dbi/shadow_check.h) reads it through
// ShadowAt. Untouched shadow reads kOk, so stack, globals and code are
// accessible, like Memcheck, which poisons only heap redzones and freed
// blocks. Marking is whole-granule: a payload whose size is not a multiple
// of 8 shares its last granule with the trailing redzone, which wins.
#ifndef REDFAT_SRC_SHADOW_SHADOW_H_
#define REDFAT_SRC_SHADOW_SHADOW_H_

#include <cstdint>

#include "src/isa/abi.h"
#include "src/vm/memory.h"

namespace redfat {

// A fresh object at payload `ptr`: a kRedzoneSize leading redzone, the
// payload kOk (clearing any stale state) and a kRedzoneSize trailing
// redzone.
void ShadowMarkMalloc(Memory& mem, uint64_t ptr, uint64_t size);

// A freed payload: kFreed. A 0-byte payload marks nothing.
void ShadowMarkFree(Memory& mem, uint64_t ptr, uint64_t size);

// The first non-kOk granule state over an access of `len` bytes at `addr`
// (a 0-byte access reads one granule), else kOk.
GuestShadow ShadowAt(const Memory& mem, uint64_t addr, unsigned len);

}  // namespace redfat

#endif  // REDFAT_SRC_SHADOW_SHADOW_H_
