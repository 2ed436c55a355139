#include "src/heap/legacy_heap.h"

#include "src/support/bits.h"

namespace redfat {

uint64_t LegacyHeap::Alloc(Memory& mem, uint64_t size) {
  const uint64_t chunk_size = AlignUp(16 + padding_ + (size == 0 ? 1 : size) + padding_, 16);
  uint64_t chunk = 0;
  auto it = free_lists_.find(chunk_size);
  if (it != free_lists_.end() && !it->second.empty()) {
    chunk = it->second.back();
    it->second.pop_back();
  } else {
    const uint64_t region_end = (static_cast<uint64_t>(kLegacyHeapRegion) + 1) << kRegionShift;
    if (bump_ + chunk_size > region_end) {
      return 0;
    }
    chunk = bump_;
    bump_ += chunk_size;
  }
  mem.WriteU64(chunk, chunk_size);
  const uint64_t payload = chunk + 16 + padding_;
  chunks_[payload] = Chunk{chunk_size, true};
  return payload;
}

bool LegacyHeap::Free(uint64_t ptr, ErrorKind* error) {
  const auto it = chunks_.find(ptr);
  if (it == chunks_.end() || !it->second.live) {
    if (error != nullptr) {
      *error = it != chunks_.end() ? ErrorKind::kDoubleFree : ErrorKind::kFreelistCorruption;
    }
    return false;
  }
  it->second.live = false;
  free_lists_[it->second.size].push_back(ptr - 16 - padding_);
  return true;
}

}  // namespace redfat
