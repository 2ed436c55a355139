#include "src/heap/forensics.h"

namespace redfat {

void ForensicRing::OnAlloc(uint64_t ptr, uint64_t size, uint64_t pc,
                           uint64_t instruction, uint64_t cycles, uint64_t epoch) {
  if (ptr == 0) {
    return;  // failed allocation: nothing to attribute later
  }
  AllocProvenance p;
  p.ptr = ptr;
  p.size = size;
  p.alloc_pc = pc;
  p.alloc_instruction = instruction;
  p.alloc_cycles = cycles;
  p.alloc_epoch = epoch;
  live_[ptr] = p;
  // The address is live again: its stale freed-ring entry would otherwise
  // shadow the new object in UAF/double-free lookups.
  const auto stale = freed_seq_.find(ptr);
  if (stale != freed_seq_.end()) {
    AllocProvenance& f = freed_[stale->second - evicted_];
    f.ptr = 0;
    f.size = 0;
    freed_seq_.erase(stale);
  }
}

void ForensicRing::OnFree(uint64_t ptr, uint64_t pc, uint64_t instruction,
                          uint64_t cycles, uint64_t epoch) {
  const auto it = live_.find(ptr);
  if (it == live_.end()) {
    return;  // untracked (attached mid-run) or double free — caller detects
  }
  AllocProvenance p = it->second;
  live_.erase(it);
  p.freed = true;
  p.free_pc = pc;
  p.free_instruction = instruction;
  p.free_cycles = cycles;
  p.free_epoch = epoch;
  freed_seq_[ptr] = evicted_ + freed_.size();
  freed_.push_back(p);
  if (freed_.size() > capacity_) {
    const auto oldest = freed_seq_.find(freed_.front().ptr);
    if (oldest != freed_seq_.end() && oldest->second == evicted_) {
      freed_seq_.erase(oldest);
    }
    freed_.pop_front();
    ++evicted_;
  }
}

const AllocProvenance* ForensicRing::FindLive(uint64_t addr) const {
  // The candidate is the greatest base <= addr.
  auto it = live_.upper_bound(addr);
  if (it == live_.begin()) {
    return nullptr;
  }
  --it;
  const AllocProvenance& p = it->second;
  return addr < p.ptr + p.size ? &p : nullptr;
}

const AllocProvenance* ForensicRing::FindFreed(uint64_t addr) const {
  for (auto it = freed_.rbegin(); it != freed_.rend(); ++it) {
    if (it->ptr != 0 && addr >= it->ptr && addr < it->ptr + it->size) {
      return &*it;
    }
  }
  return nullptr;
}

const AllocProvenance* ForensicRing::FreedAt(uint64_t ptr) const {
  const auto it = freed_seq_.find(ptr);
  return it != freed_seq_.end() ? &freed_[it->second - evicted_] : nullptr;
}

ForensicRing::Proximity ForensicRing::Nearest(uint64_t addr) const {
  Proximity best;
  const auto consider = [&](const AllocProvenance& p) {
    if (p.ptr == 0 && p.size == 0) {
      return;
    }
    uint64_t distance;
    bool past_end;
    if (addr < p.ptr) {
      distance = p.ptr - addr;
      past_end = false;
    } else if (addr < p.ptr + p.size) {
      distance = 0;
      past_end = false;
    } else {
      distance = addr - (p.ptr + p.size) + 1;
      past_end = true;
    }
    if (best.object == nullptr || distance < best.distance) {
      best.object = &p;
      best.distance = distance;
      best.past_end = past_end;
    }
  };
  // Only the two live neighbours of addr can be nearest among live objects.
  auto hi = live_.upper_bound(addr);
  if (hi != live_.end()) {
    consider(hi->second);
  }
  if (hi != live_.begin()) {
    consider(std::prev(hi)->second);
  }
  // Freed objects are few (bounded ring) and matter for UAF-adjacent OOBs.
  for (const AllocProvenance& p : freed_) {
    consider(p);
  }
  return best;
}

}  // namespace redfat
