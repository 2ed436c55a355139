// Adversarial allocator stress: long random alloc/free interleavings with a
// host-side model of the live set, verifying the low-fat invariants, the
// redzone wrapper's metadata, quarantine behaviour, fallback boundaries, and
// the rheap hardening features under direct attack (forged freelist links,
// overlapping frees, quarantine bypass) — host-side and end-to-end through
// the churn workload.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/forensics_report.h"
#include "src/core/harness.h"
#include "src/core/policy.h"
#include "src/core/redfat.h"
#include "src/heap/forensics.h"
#include "src/heap/legacy_heap.h"
#include "src/heap/lowfat.h"
#include "src/heap/redfat_allocator.h"
#include "src/heap/shadow_allocator.h"
#include "src/shadow/shadow.h"
#include "src/support/rng.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

TEST(LowFatStress, LiveSlotsNeverOverlap) {
  Memory mem;
  LowFatHeap heap(8);
  Rng rng(0x57e55);
  std::map<uint64_t, uint64_t> live;  // slot -> slot end
  for (int i = 0; i < 20000; ++i) {
    if (live.empty() || rng.Chance(3, 5)) {
      const uint64_t want =
          rng.Chance(1, 10) ? rng.Range(513, 64 << 10) : rng.Range(1, 512);
      const uint64_t slot = heap.Alloc(mem, want).slot;
      ASSERT_NE(slot, 0u);
      const uint64_t size = LowFatSize(slot);
      ASSERT_GE(size, want);
      // No overlap with any live slot.
      auto next = live.lower_bound(slot);
      if (next != live.end()) {
        ASSERT_LE(slot + size, next->first);
      }
      if (next != live.begin()) {
        auto prev = std::prev(next);
        ASSERT_LE(prev->second, slot);
      }
      live[slot] = slot + size;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      heap.Free(mem, it->first);
      live.erase(it);
    }
  }
  EXPECT_EQ(heap.stats().live_slots, live.size());
}

TEST(LowFatStress, QuarantineNeverHandsBackRecentFrees) {
  constexpr unsigned kQuarantine = 16;
  Memory mem;
  LowFatHeap heap(kQuarantine);
  Rng rng(0xdead);
  std::vector<uint64_t> recent;  // last kQuarantine frees
  for (int i = 0; i < 5000; ++i) {
    const uint64_t slot = heap.Alloc(mem, 48).slot;
    for (uint64_t r : recent) {
      ASSERT_NE(slot, r) << "slot reused while quarantined";
    }
    if (rng.Chance(4, 5)) {
      heap.Free(mem, slot);
      recent.push_back(slot);
      if (recent.size() > kQuarantine) {
        recent.erase(recent.begin());
      }
    }
  }
}

TEST(RedFatAllocatorStress, MetadataAlwaysTracksLiveSet) {
  Memory mem;
  RedFatAllocator alloc;
  Rng rng(0xa110c);
  std::map<uint64_t, uint64_t> live;  // ptr -> size
  for (int i = 0; i < 10000; ++i) {
    if (live.empty() || rng.Chance(3, 5)) {
      const uint64_t size = rng.Range(1, 2000);
      const uint64_t p = alloc.Malloc(mem, size).ptr;
      ASSERT_NE(p, 0u);
      live[p] = size;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      alloc.Free(mem, it->first);
      ASSERT_EQ(mem.ReadU64(it->first - kRedzoneSize), 0u) << "freed metadata";
      live.erase(it);
    }
    // Every live object's metadata equals its malloc size.
    if (i % 500 == 0) {
      for (const auto& [p, size] : live) {
        ASSERT_EQ(mem.ReadU64(p - kRedzoneSize), size);
      }
    }
  }
}

TEST(RedFatAllocatorStress, FallbackBoundary) {
  Memory mem;
  RedFatAllocator alloc;
  // Largest low-fat-servable payload: kMaxLowFatSize - 16.
  const uint64_t p1 = alloc.Malloc(mem, kMaxLowFatSize - kRedzoneSize).ptr;
  ASSERT_NE(p1, 0u);
  EXPECT_NE(LowFatSize(p1), 0u);
  EXPECT_EQ(alloc.fallback_allocs(), 0u);
  // One byte more: legacy fallback, non-fat.
  const uint64_t p2 = alloc.Malloc(mem, kMaxLowFatSize - kRedzoneSize + 1).ptr;
  ASSERT_NE(p2, 0u);
  EXPECT_EQ(LowFatSize(p2), 0u);
  EXPECT_EQ(alloc.fallback_allocs(), 1u);
  alloc.Free(mem, p1);
  alloc.Free(mem, p2);
}

TEST(RedFatAllocatorStress, ZeroByteMalloc) {
  Memory mem;
  RedFatAllocator alloc;
  const uint64_t p = alloc.Malloc(mem, 0).ptr;
  ASSERT_NE(p, 0u);
  EXPECT_EQ(mem.ReadU64(p - kRedzoneSize), 0u) << "SIZE 0 stored...";
  // ...which doubles as the Free encoding: any dereference of a zero-byte
  // object is out of bounds by definition, exactly what the check enforces.
  alloc.Free(mem, p);
}

TEST(LegacyHeapStress, ChunkReuseRespectsSizeBuckets) {
  Memory mem;
  LegacyHeap heap;
  Rng rng(0x1e6ac);
  std::map<uint64_t, uint64_t> live;
  for (int i = 0; i < 8000; ++i) {
    if (live.empty() || rng.Chance(1, 2)) {
      const uint64_t size = rng.Range(1, 4096);
      const uint64_t p = heap.Alloc(mem, size);
      ASSERT_NE(p, 0u);
      ASSERT_EQ(p % 16, 0u);
      ASSERT_TRUE(heap.IsLive(p));
      auto next = live.lower_bound(p);
      if (next != live.end()) {
        ASSERT_LE(p + size, next->first) << "payload overlaps next chunk";
      }
      live[p] = size;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      heap.Free(it->first);
      live.erase(it);
    }
  }
}

// --- rheap hardening features under direct attack ---------------------------

RheapOptions ProtOnly() {
  RheapOptions o;
  o.prot_freelist = true;
  o.quarantine_slots = 0;
  return o;
}

TEST(RheapHardened, ForgedFreelistLinkDetectedOnPop) {
  Memory mem;
  LowFatHeap heap(ProtOnly());
  const uint64_t a = heap.Alloc(mem, 48).slot;
  const uint64_t b = heap.Alloc(mem, 48).slot;
  heap.Free(mem, a);
  heap.Free(mem, b);  // LIFO head: b, link[b] = Enc(a)
  // The attack: scribble over the head slot's in-guest link word.
  mem.WriteU64(b + 8, 0x4141414141414141ULL);
  const LowFatAllocResult r = heap.Alloc(mem, 48);
  EXPECT_TRUE(r.corrupted);
  EXPECT_EQ(r.corrupt_addr, b + 8);
  EXPECT_EQ(heap.stats().corruptions, 1u);
  // The allocation still succeeds — served from the bump arena, never from
  // the poisoned chain.
  ASSERT_NE(r.slot, 0u);
  EXPECT_NE(r.slot, a);
  EXPECT_NE(r.slot, b);
  // The discarded chain never re-enters circulation.
  for (int i = 0; i < 8; ++i) {
    const LowFatAllocResult again = heap.Alloc(mem, 48);
    EXPECT_FALSE(again.corrupted);
    EXPECT_NE(again.slot, a);
    EXPECT_NE(again.slot, b);
  }
}

TEST(RheapHardened, ForgedLinkHijacksAllocationWithoutProt) {
  // The contrast case motivating prot-freelist: with the feature off the
  // same scribble hands the attacker an arbitrary allocation address.
  RheapOptions off;
  off.quarantine_slots = 0;
  Memory mem;
  LowFatHeap heap(off);
  const uint64_t a = heap.Alloc(mem, 48).slot;
  const uint64_t b = heap.Alloc(mem, 48).slot;
  heap.Free(mem, a);
  heap.Free(mem, b);
  const uint64_t forged = 0x4141414141414140ULL;
  mem.WriteU64(b + 8, forged);
  const LowFatAllocResult r1 = heap.Alloc(mem, 48);
  EXPECT_FALSE(r1.corrupted);
  EXPECT_EQ(r1.slot, b);
  const LowFatAllocResult r2 = heap.Alloc(mem, 48);
  EXPECT_EQ(r2.slot, forged) << "unprotected freelists follow forged links";
}

TEST(RheapHardened, OverlappingFreeDiagnosedUnderProt) {
  Memory mem;
  RedFatAllocator alloc(ProtOnly());
  const uint64_t p = alloc.Malloc(mem, 100).ptr;
  ASSERT_NE(p, 0u);
  const FreeOutcome bad = alloc.Free(mem, p + 8);  // interior pointer
  EXPECT_TRUE(bad.corrupted);
  EXPECT_EQ(bad.corrupt_kind, ErrorKind::kFreelistCorruption);
  EXPECT_EQ(bad.corrupt_addr, p + 8);
  // The bogus pointer was never pushed: metadata intact, object still live
  // and cleanly freeable.
  EXPECT_EQ(mem.ReadU64(p - kRedzoneSize), 100u);
  EXPECT_FALSE(alloc.Free(mem, p).corrupted);
}

TEST(RheapHardened, OverlappingFreeSilentlyDroppedWithoutProt) {
  // Without prot-freelist the interior free must still never corrupt the
  // freelist (that is how cycles are forged) — it is just not diagnosed.
  Memory mem;
  RedFatAllocator alloc{RheapOptions{}};
  const uint64_t p = alloc.Malloc(mem, 100).ptr;
  const FreeOutcome out = alloc.Free(mem, p + 8);
  EXPECT_FALSE(out.corrupted);
  EXPECT_EQ(mem.ReadU64(p - kRedzoneSize), 100u) << "drop, not push";
  EXPECT_FALSE(alloc.Free(mem, p).corrupted);
}

TEST(RheapHardened, DoubleFreeDiagnosed) {
  RheapOptions o;
  o.prot_freelist = true;  // default quarantine depth
  Memory mem;
  RedFatAllocator alloc(o);
  const uint64_t p = alloc.Malloc(mem, 64).ptr;
  EXPECT_FALSE(alloc.Free(mem, p).corrupted);
  const FreeOutcome second = alloc.Free(mem, p);
  EXPECT_TRUE(second.corrupted);
  EXPECT_EQ(second.corrupt_kind, ErrorKind::kDoubleFree);
  EXPECT_EQ(second.corrupt_addr, p);
}

TEST(RheapHardened, QuarantineBypassDetectedOnDrain) {
  RheapOptions o;
  o.prot_freelist = true;
  o.quarantine_slots = 2;
  Memory mem;
  LowFatHeap heap(o);
  uint64_t s[4];
  for (uint64_t& slot : s) {
    slot = heap.Alloc(mem, 48).slot;
  }
  heap.Free(mem, s[0]);  // FIFO: s0
  heap.Free(mem, s[1]);  // FIFO: s0 -> s1, link[s0] = Enc(s1)
  // Quarantine-bypass attempt: rewrite the oldest entry's chain link.
  mem.WriteU64(s[0] + 8, 0xdeadbeefULL);
  const LowFatFreeResult r = heap.Free(mem, s[2]);  // depth 3 > 2: drains s0
  EXPECT_TRUE(r.corrupted);
  EXPECT_EQ(r.corrupt_addr, s[0] + 8);
  EXPECT_EQ(heap.stats().corruptions, 1u);
  // The whole tainted chain was discarded; nothing on it is ever reissued.
  EXPECT_FALSE(heap.Free(mem, s[3]).corrupted);
  for (int i = 0; i < 8; ++i) {
    const uint64_t got = heap.Alloc(mem, 48).slot;
    EXPECT_NE(got, s[0]);
    EXPECT_NE(got, s[1]);
    EXPECT_NE(got, s[2]);
  }
}

TEST(RheapHardened, ProtFreelistNeverChangesPlacement) {
  // prot-freelist only re-encodes link words; the allocation sequence must
  // be slot-identical to the features-off heap under any interleaving.
  RheapOptions off;
  off.quarantine_slots = 8;
  RheapOptions prot = off;
  prot.prot_freelist = true;
  Memory m1, m2;
  LowFatHeap h1(off), h2(prot);
  Rng rng(0xcafe);
  std::vector<uint64_t> live1, live2;
  for (int i = 0; i < 4000; ++i) {
    if (live1.empty() || rng.Chance(3, 5)) {
      const uint64_t want = rng.Range(1, 2048);
      const uint64_t a = h1.Alloc(m1, want).slot;
      const uint64_t b = h2.Alloc(m2, want).slot;
      ASSERT_EQ(a, b) << "op " << i;
      live1.push_back(a);
      live2.push_back(b);
    } else {
      const size_t k = rng.Below(live1.size());
      h1.Free(m1, live1[k]);
      h2.Free(m2, live2[k]);
      live1.erase(live1.begin() + static_cast<long>(k));
      live2.erase(live2.begin() + static_cast<long>(k));
    }
  }
}

// --- churn workload end-to-end ----------------------------------------------

InstrumentResult InstrumentDefault(const BinaryImage& img) {
  RedFatTool tool{RedFatOptions{}};
  Result<InstrumentResult> r = tool.Instrument(img);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error());
  return std::move(r).value();
}

TEST(ChurnWorkload, ChecksumIndependentOfAllocatorAndFeatures) {
  // The churn checksum hashes only guest-written header words, so it is the
  // allocator-independence witness: baseline glibc-like, features-off
  // libredfat and every-feature-on libredfat must all print the same value.
  ChurnParams p;
  p.seed = 9;
  const BinaryImage img = GenerateChurnProgram(p);
  RunConfig cfg;
  cfg.inputs = {400, 0};
  const RunOutcome base = RunImage(img, RuntimeKind::kBaseline, cfg);
  ASSERT_EQ(base.result.reason, HaltReason::kExit) << base.result.fault_message;
  ASSERT_EQ(base.outputs.size(), 1u);

  const InstrumentResult ir = InstrumentDefault(img);
  const RunOutcome off = RunImage(ir.image, RuntimeKind::kRedFat, cfg);
  EXPECT_EQ(off.result.reason, HaltReason::kExit) << off.result.fault_message;
  EXPECT_EQ(off.outputs, base.outputs);

  RunConfig all = cfg;
  all.rheap.prot_freelist = true;
  all.rheap.guard_memcpy = true;
  all.rheap.random = true;
  all.rheap.quarantine_slots = 64;
  const RunOutcome hard = RunImage(ir.image, RuntimeKind::kRedFat, all);
  EXPECT_EQ(hard.result.reason, HaltReason::kExit) << hard.result.fault_message;
  EXPECT_EQ(hard.outputs, base.outputs);
  EXPECT_TRUE(hard.errors.empty());
}

TEST(ChurnWorkload, ImageBytesIndependentOfRheapFeatures) {
  // --rheap is a runtime binding, never an instrumentation knob: rewriting
  // under an explicit feature list must produce byte-identical code. Only
  // the provenance (and hence the sitemap header) differs.
  ChurnParams p;
  const BinaryImage img = GenerateChurnProgram(p);
  HardeningPolicy plain;
  plain.tier = HardenTier::kFast;
  HardeningPolicy listed;
  listed.tier = HardenTier::kFast;
  listed.rheap =
      ParseRheapList("prot-freelist,guard-memcpy,random,quarantine=16").value();
  const InstrumentResult a = RedFatTool(plain.Resolve().value()).Instrument(img).value();
  const InstrumentResult b = RedFatTool(listed.Resolve().value()).Instrument(img).value();
  EXPECT_EQ(a.image.Serialize(), b.image.Serialize());
  EXPECT_FALSE(a.rheap_explicit);
  ASSERT_TRUE(b.rheap_explicit);
  EXPECT_EQ(b.rheap, *listed.rheap);
}

TEST(ChurnWorkload, ForgedLinkRunAbortsWithFreedProvenance) {
  // The attack runs UNinstrumented under the redfat runtime: prot-freelist
  // is the allocator's own last line of defense for stores no rewriter
  // check intercepted. (Instrumented, the forging store itself is caught as
  // a plain OOB — see InstrumentedChecksCatchTheForgingStoreFirst.)
  ChurnParams p;
  p.seed = 5;
  const BinaryImage img = GenerateChurnProgram(p);
  ForensicRing ring;
  RunConfig cfg;
  cfg.inputs = {300, 1};  // bug tail: forge a freed slot's freelist link
  cfg.rheap.prot_freelist = true;
  cfg.rheap.quarantine_slots = 64;
  cfg.forensics = &ring;
  cfg.forensic_tier = "extensive";
  const RunOutcome out = RunImage(img, RuntimeKind::kRedFat, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
  ASSERT_FALSE(out.errors.empty());
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kFreelistCorruption);
  ASSERT_EQ(out.outputs.size(), 1u) << "checksum is emitted before the tail";

  ASSERT_FALSE(out.forensic_reports.empty());
  const ForensicReport& fr = out.forensic_reports[0];
  EXPECT_NE(fr.description.find("freelist corruption"), std::string::npos)
      << fr.description;
  EXPECT_TRUE(fr.have_provenance);
  EXPECT_TRUE(fr.provenance_freed)
      << "the forged link word lives inside a freed object";
  const std::string json = ForensicReportsToJson(out.forensic_reports, ring);
  EXPECT_NE(json.find("\"kind\":\"freelist-corruption\""), std::string::npos) << json;
}

TEST(ChurnWorkload, ForgedLinkRunsToCompletionWithoutProt) {
  // Same attack, features off: no detection, but also no misbehaviour the
  // checksum can see — and the checksum matches the benign mode exactly.
  ChurnParams p;
  p.seed = 5;
  const BinaryImage img = GenerateChurnProgram(p);
  RunConfig benign;
  benign.inputs = {300, 0};
  RunConfig forged;
  forged.inputs = {300, 1};
  const RunOutcome b = RunImage(img, RuntimeKind::kRedFat, benign);
  const RunOutcome f = RunImage(img, RuntimeKind::kRedFat, forged);
  EXPECT_EQ(f.result.reason, HaltReason::kExit) << f.result.fault_message;
  EXPECT_TRUE(f.errors.empty());
  EXPECT_EQ(f.outputs, b.outputs);
}

TEST(ChurnWorkload, InstrumentedChecksCatchTheForgingStoreFirst) {
  // Defense in depth: when the binary IS instrumented, the forging store
  // into the freed slot's redzone is itself flagged as an OOB before the
  // freelist ever pops the forged link.
  ChurnParams p;
  p.seed = 5;
  const BinaryImage img = GenerateChurnProgram(p);
  const InstrumentResult ir = InstrumentDefault(img);
  RunConfig cfg;
  cfg.inputs = {300, 1};
  cfg.rheap.prot_freelist = true;
  cfg.rheap.quarantine_slots = 64;
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFat, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
  ASSERT_FALSE(out.errors.empty());
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kBounds);
}

TEST(ChurnWorkload, OverlappingFreeRunDetected) {
  ChurnParams p;
  p.seed = 11;
  const BinaryImage img = GenerateChurnProgram(p);
  const InstrumentResult ir = InstrumentDefault(img);
  RunConfig cfg;
  cfg.inputs = {200, 2};  // bug tail: free an interior pointer
  cfg.rheap.prot_freelist = true;
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFat, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
  ASSERT_FALSE(out.errors.empty());
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kFreelistCorruption);
}

TEST(ShadowAllocatorStress, ShadowConsistentWithLiveSet) {
  Memory mem;
  ShadowRedFatAllocator alloc;
  Rng rng(0x5ade);
  std::map<uint64_t, uint64_t> live;
  auto shadow_at = [&](uint64_t a) { return ShadowAt(mem, a, 1); };
  for (int i = 0; i < 4000; ++i) {
    if (live.empty() || rng.Chance(3, 5)) {
      const uint64_t size = rng.Range(8, 512) & ~7ull;  // granule-aligned
      const uint64_t p = alloc.Malloc(mem, size).ptr;
      ASSERT_NE(p, 0u);
      live[p] = size;
      ASSERT_EQ(shadow_at(p), GuestShadow::kOk);
      ASSERT_EQ(shadow_at(p + size - 1), GuestShadow::kOk);
      ASSERT_EQ(shadow_at(p - 8), GuestShadow::kRedzone);
      ASSERT_EQ(shadow_at(p + size), GuestShadow::kRedzone);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      alloc.Free(mem, it->first);
      ASSERT_EQ(shadow_at(it->first), GuestShadow::kFreed);
      live.erase(it);
    }
  }
}

}  // namespace
}  // namespace redfat
