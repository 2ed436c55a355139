#include "src/shadow/shadow.h"

namespace redfat {

namespace {

void Mark(Memory& mem, uint64_t addr, uint64_t size, GuestShadow state) {
  if (size == 0) {
    return;
  }
  const uint64_t first = addr >> 3;
  const uint64_t last = (addr + size - 1) >> 3;
  mem.Fill(kGuestShadowBase + first, static_cast<uint8_t>(state), last - first + 1);
}

}  // namespace

void ShadowMarkMalloc(Memory& mem, uint64_t ptr, uint64_t size) {
  Mark(mem, ptr - kRedzoneSize, kRedzoneSize, GuestShadow::kRedzone);
  Mark(mem, ptr, size, GuestShadow::kOk);
  Mark(mem, ptr + size, kRedzoneSize, GuestShadow::kRedzone);
}

void ShadowMarkFree(Memory& mem, uint64_t ptr, uint64_t size) {
  Mark(mem, ptr, size, GuestShadow::kFreed);
}

GuestShadow ShadowAt(const Memory& mem, uint64_t addr, unsigned len) {
  const uint64_t first = addr >> 3;
  const uint64_t last = (addr + (len == 0 ? 0 : len - 1)) >> 3;
  for (uint64_t g = first; g <= last; ++g) {
    const auto s = static_cast<GuestShadow>(mem.Read(kGuestShadowBase + g, 1));
    if (s != GuestShadow::kOk) {
      return s;
    }
  }
  return GuestShadow::kOk;
}

}  // namespace redfat
