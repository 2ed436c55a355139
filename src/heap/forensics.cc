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
  const auto [it, inserted] = index_.try_emplace(ptr, 0);
  if (!inserted) {
    if ((it->second & kFreedTag) == 0) {
      slots_[it->second >> 1] = p;  // handed out again while live: replace
      return;
    }
    // The address is live again: its stale freed-ring entry would otherwise
    // shadow the new object in UAF/double-free lookups.
    AllocProvenance& f = freed_[(it->second >> 1) - evicted_];
    f.ptr = 0;
    f.size = 0;
  }
  uint64_t slot;
  if (free_slots_.empty()) {
    slot = slots_.size();
    slots_.push_back(p);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = p;
  }
  it->second = slot << 1;
}

void ForensicRing::OnFree(uint64_t ptr, uint64_t pc, uint64_t instruction,
                          uint64_t cycles, uint64_t epoch) {
  const auto it = index_.find(ptr);
  if (it == index_.end() || (it->second & kFreedTag) != 0) {
    return;  // untracked (attached mid-run) or double free — caller detects
  }
  const uint64_t slot = it->second >> 1;
  AllocProvenance p = slots_[slot];
  slots_[slot].ptr = 0;
  free_slots_.push_back(slot);
  p.freed = true;
  p.free_pc = pc;
  p.free_instruction = instruction;
  p.free_cycles = cycles;
  p.free_epoch = epoch;
  it->second = ((evicted_ + freed_.size()) << 1) | kFreedTag;
  freed_.push_back(p);
  if (freed_.size() > capacity_) {
    const uint64_t oldest_ptr = freed_.front().ptr;
    if (oldest_ptr != 0) {
      const auto oldest = index_.find(oldest_ptr);
      if (oldest != index_.end() && oldest->second == ((evicted_ << 1) | kFreedTag)) {
        index_.erase(oldest);
      }
    }
    freed_.pop_front();
    ++evicted_;
  }
}

ForensicRing::Neighbours ForensicRing::LiveNeighbours(uint64_t addr) const {
  Neighbours n;
  for (const AllocProvenance& p : slots_) {
    if (p.ptr == 0) {
      continue;
    }
    if (p.ptr <= addr) {
      if (n.below == nullptr || p.ptr > n.below->ptr) {
        n.below = &p;
      }
    } else if (n.above == nullptr || p.ptr < n.above->ptr) {
      n.above = &p;
    }
  }
  return n;
}

const AllocProvenance* ForensicRing::FindLive(uint64_t addr) const {
  // The candidate is the greatest base <= addr.
  const AllocProvenance* p = LiveNeighbours(addr).below;
  return p != nullptr && addr < p->ptr + p->size ? p : nullptr;
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
  const auto it = index_.find(ptr);
  if (it == index_.end() || (it->second & kFreedTag) == 0) {
    return nullptr;
  }
  return &freed_[(it->second >> 1) - evicted_];
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
  // Only the two live neighbours of addr can be nearest among live objects;
  // the one above is considered first, so it wins an equal distance.
  const Neighbours n = LiveNeighbours(addr);
  if (n.above != nullptr) {
    consider(*n.above);
  }
  if (n.below != nullptr) {
    consider(*n.below);
  }
  // Freed objects are few (bounded ring) and matter for UAF-adjacent OOBs.
  for (const AllocProvenance& p : freed_) {
    consider(p);
  }
  return best;
}

}  // namespace redfat
