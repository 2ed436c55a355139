#include <gtest/gtest.h>

#include <vector>

#include "src/heap/legacy_heap.h"
#include "src/heap/lowfat.h"
#include "src/heap/redfat_allocator.h"
#include "src/heap/shadow_allocator.h"
#include "src/support/rng.h"

namespace redfat {
namespace {

TEST(LowFatTables, NonFatRegionsAreZero) {
  const LowFatTables& t = GetLowFatTables();
  EXPECT_EQ(t.sizes[0], 0u);
  EXPECT_EQ(t.sizes[kLegacyHeapRegion], 0u);
  EXPECT_EQ(t.sizes[kNumRegions - 1], 0u);
  for (unsigned c = 1; c <= kNumSizeClasses; ++c) {
    EXPECT_EQ(t.sizes[c], SizeClassBytes(c));
    EXPECT_NE(t.magics[c], 0u);
    EXPECT_EQ(t.shifts[c], 0u) << "check codegen assumes shift-free magics";
  }
}

TEST(LowFatTables, MagicDivisionExactForRegionPointers) {
  const LowFatTables& t = GetLowFatTables();
  Rng rng(13);
  for (unsigned c = 1; c <= kNumSizeClasses; ++c) {
    const uint64_t size = t.sizes[c];
    const uint64_t lo = static_cast<uint64_t>(c) << kRegionShift;
    const uint64_t hi = lo + kRegionSize - 1;
    for (int i = 0; i < 500; ++i) {
      const uint64_t p = rng.Range(lo, hi);
      EXPECT_EQ(MulHigh64(p, t.magics[c]), p / size) << "c=" << c << " p=" << p;
    }
  }
}

TEST(LowFat, SizeClassForBoundaries) {
  EXPECT_EQ(SizeClassFor(0), 1u);
  EXPECT_EQ(SizeClassFor(1), 1u);
  EXPECT_EQ(SizeClassFor(16), 1u);
  EXPECT_EQ(SizeClassFor(17), 2u);
  EXPECT_EQ(SizeClassFor(512), 32u);
  EXPECT_EQ(SizeClassFor(513), 33u);
  EXPECT_EQ(SizeClassFor(1024), 33u);
  EXPECT_EQ(SizeClassFor(1025), 34u);
  EXPECT_EQ(SizeClassFor(kMaxLowFatSize), kNumSizeClasses);
  EXPECT_EQ(SizeClassFor(kMaxLowFatSize + 1), 0u);
}

TEST(LowFat, BaseAndSizeOfNonFatPointerAreZero) {
  EXPECT_EQ(LowFatSize(0x400000), 0u);    // code
  EXPECT_EQ(LowFatBase(0x400000), 0u);
  EXPECT_EQ(LowFatSize(kStackTop - 8), 0u);
  EXPECT_EQ(LowFatSize(kLegacyHeapBase + 64), 0u);
  EXPECT_EQ(LowFatSize(~0ull), 0u);  // beyond the table
}

// Property (the core low-fat invariant): for any allocation and any interior
// pointer, base()/size() recover the slot exactly.
TEST(LowFat, AllocInvariantsProperty) {
  Memory mem;
  LowFatHeap heap;
  Rng rng(1234);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t want = rng.Chance(1, 4) ? rng.Range(513, 8192) : rng.Range(1, 512);
    const uint64_t slot = heap.Alloc(mem, want).slot;
    ASSERT_NE(slot, 0u);
    const uint64_t size = LowFatSize(slot);
    ASSERT_GE(size, want);
    ASSERT_EQ(slot % size, 0u) << "slots are size-aligned";
    ASSERT_EQ(LowFatBase(slot), slot);
    // Interior pointers recover the same slot.
    for (int j = 0; j < 8; ++j) {
      const uint64_t p = slot + rng.Below(size);
      ASSERT_EQ(LowFatBase(p), slot);
      ASSERT_EQ(LowFatSize(p), size);
    }
    // One-past-the-end belongs to the *next* slot.
    ASSERT_EQ(LowFatBase(slot + size), slot + size);
  }
}

TEST(LowFat, AdjacentAllocationsAreContiguousSlots) {
  Memory mem;
  LowFatHeap heap;
  const uint64_t a = heap.Alloc(mem, 100).slot;  // class 7 -> 112-byte slots
  const uint64_t b = heap.Alloc(mem, 100).slot;
  ASSERT_NE(a, 0u);
  EXPECT_EQ(b, a + 112);
}

TEST(LowFat, FreeReusesAfterQuarantine) {
  Memory mem;
  LowFatHeap heap(/*quarantine_slots=*/2);
  const uint64_t a = heap.Alloc(mem, 16).slot;
  heap.Free(mem, a);
  const uint64_t b = heap.Alloc(mem, 16).slot;
  EXPECT_NE(b, a) << "quarantine must delay reuse";
  const uint64_t c = heap.Alloc(mem, 16).slot;
  heap.Free(mem, b);
  heap.Free(mem, c);
  // a leaves quarantine after 2 more frees; next alloc may reuse it.
  const uint64_t d = heap.Alloc(mem, 16).slot;
  EXPECT_EQ(d, a);
}

TEST(LowFat, NoQuarantineReusesImmediately) {
  Memory mem;
  LowFatHeap heap(/*quarantine_slots=*/0);
  const uint64_t a = heap.Alloc(mem, 32).slot;
  heap.Free(mem, a);
  EXPECT_EQ(heap.Alloc(mem, 32).slot, a);
}

TEST(LowFat, HugeAllocationRefused) {
  Memory mem;
  LowFatHeap heap;
  const LowFatAllocResult r = heap.Alloc(mem, kMaxLowFatSize + 1);
  EXPECT_EQ(r.slot, 0u);
  EXPECT_EQ(r.status, LowFatAllocStatus::kTooLarge);
}

TEST(LowFat, StatsTrackLiveSlots) {
  Memory mem;
  LowFatHeap heap;
  const uint64_t a = heap.Alloc(mem, 16).slot;
  const uint64_t b = heap.Alloc(mem, 16).slot;
  (void)b;
  EXPECT_EQ(heap.stats().allocs, 2u);
  EXPECT_EQ(heap.stats().live_slots, 2u);
  heap.Free(mem, a);
  EXPECT_EQ(heap.stats().frees, 1u);
  EXPECT_EQ(heap.stats().live_slots, 1u);
}

TEST(LegacyHeap, AllocFreeReuse) {
  Memory mem;
  LegacyHeap heap;
  const uint64_t a = heap.Alloc(mem, 100);
  ASSERT_NE(a, 0u);
  EXPECT_GE(a, kLegacyHeapBase);
  EXPECT_TRUE(heap.IsLive(a));
  heap.Free(a);
  EXPECT_FALSE(heap.IsLive(a));
  const uint64_t b = heap.Alloc(mem, 100);
  EXPECT_EQ(b, a) << "exact-size free list reuse";
}

TEST(LegacyHeap, PaddingShiftsPayload) {
  Memory mem;
  LegacyHeap plain(0), padded(16);
  const uint64_t a = plain.Alloc(mem, 64);
  const uint64_t b = padded.Alloc(mem, 64);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_EQ(b % 16, 0u);
  // The padded heap puts 16 more bytes before the payload, and 16 after it.
  EXPECT_EQ(b - a, 16u);
  EXPECT_EQ(padded.Alloc(mem, 64) - b, 16u + 16u + 64u + 16u);
}

// A guest double or invalid free is reported to the caller, never a host
// abort, and leaves the heap as it was.
TEST(LegacyHeap, DoubleAndInvalidFreesAreReported) {
  Memory mem;
  LegacyHeap heap;
  const uint64_t a = heap.Alloc(mem, 40);
  ErrorKind error = ErrorKind::kBounds;
  EXPECT_TRUE(heap.Free(a, &error));
  EXPECT_FALSE(heap.Free(a, &error));
  EXPECT_EQ(error, ErrorKind::kDoubleFree);
  EXPECT_FALSE(heap.Free(a + 8, &error));
  EXPECT_EQ(error, ErrorKind::kFreelistCorruption);
  // The rejected frees pushed nothing: one reuse, then a fresh chunk.
  EXPECT_EQ(heap.Alloc(mem, 40), a);
  EXPECT_NE(heap.Alloc(mem, 40), a);
  // Reallocated, the payload is live again and frees cleanly.
  EXPECT_TRUE(heap.Free(a, &error));
}

// The same through each runtime's GuestAllocator: baseline (glibc-like),
// redfat-shadow, and the redfat allocator's legacy fallback for objects
// too large for a low-fat class.
TEST(GuestAllocators, DoubleAndInvalidFreesAreReported) {
  GlibcLikeAllocator glibc;
  ShadowRedFatAllocator shadow;
  RedFatAllocator redfat;
  struct Case {
    const char* name;
    GuestAllocator* alloc;
    uint64_t size;
  };
  const Case cases[] = {
      {"glibc-like", &glibc, 40},
      {"redfat-shadow", &shadow, 40},
      {"redfat-shadow legacy", &shadow, kMaxLowFatSize + 1},
      {"redfat legacy", &redfat, kMaxLowFatSize + 1},
  };
  for (const Case& c : cases) {
    Memory mem;
    const uint64_t p = c.alloc->Malloc(mem, c.size).ptr;
    ASSERT_NE(p, 0u) << c.name;
    EXPECT_FALSE(c.alloc->Free(mem, p).corrupted) << c.name;
    const FreeOutcome twice = c.alloc->Free(mem, p);
    EXPECT_TRUE(twice.corrupted) << c.name;
    EXPECT_EQ(twice.corrupt_kind, ErrorKind::kDoubleFree) << c.name;
    EXPECT_EQ(twice.corrupt_addr, p) << c.name;
    const FreeOutcome interior = c.alloc->Free(mem, p + 8);
    EXPECT_TRUE(interior.corrupted) << c.name;
    EXPECT_EQ(interior.corrupt_kind, ErrorKind::kFreelistCorruption) << c.name;
    EXPECT_EQ(interior.corrupt_addr, p + 8) << c.name;
    // A fresh allocation still frees cleanly.
    const uint64_t q = c.alloc->Malloc(mem, c.size).ptr;
    ASSERT_NE(q, 0u) << c.name;
    EXPECT_FALSE(c.alloc->Free(mem, q).corrupted) << c.name;
  }
}

TEST(RedFatAllocator, LayoutMatchesFigure3) {
  Memory mem;
  RedFatAllocator alloc;
  const AllocOutcome out = alloc.Malloc(mem, 40);
  ASSERT_NE(out.ptr, 0u);
  const uint64_t slot = out.ptr - kRedzoneSize;
  // Slot is a low-fat slot of class ceil((40+16)/16) = 4 -> 64 bytes.
  EXPECT_EQ(LowFatBase(out.ptr), slot);
  EXPECT_EQ(LowFatSize(out.ptr), 64u);
  // Metadata: malloc SIZE stored at the slot base, inside the redzone.
  EXPECT_EQ(mem.ReadU64(slot), 40u);
}

TEST(RedFatAllocator, FreeMarksMetadataZero) {
  Memory mem;
  RedFatAllocator alloc;
  const uint64_t p = alloc.Malloc(mem, 24).ptr;
  const uint64_t slot = p - kRedzoneSize;
  EXPECT_EQ(mem.ReadU64(slot), 24u);
  alloc.Free(mem, p);
  EXPECT_EQ(mem.ReadU64(slot), 0u) << "Free state = SIZE 0";
}

TEST(RedFatAllocator, HugeAllocationFallsBackToLegacy) {
  Memory mem;
  RedFatAllocator alloc;
  const uint64_t p = alloc.Malloc(mem, kMaxLowFatSize).ptr;  // +16 exceeds max class
  ASSERT_NE(p, 0u);
  EXPECT_EQ(LowFatSize(p), 0u) << "fallback objects are non-fat";
  EXPECT_EQ(alloc.fallback_allocs(), 1u);
  EXPECT_EQ(mem.ReadU64(p - kRedzoneSize), kMaxLowFatSize);
  alloc.Free(mem, p);
}

TEST(RedFatAllocator, FreeNullIsNoop) {
  Memory mem;
  RedFatAllocator alloc;
  EXPECT_GT(alloc.Free(mem, 0).cycles, 0u);
}

TEST(RedFatAllocator, ManyAllocationsStaySizeAligned) {
  Memory mem;
  RedFatAllocator alloc;
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t sz = rng.Range(1, 4096);
    const uint64_t p = alloc.Malloc(mem, sz).ptr;
    ASSERT_NE(p, 0u);
    ASSERT_EQ(LowFatBase(p), p - kRedzoneSize);
    ASSERT_GE(LowFatSize(p), sz + kRedzoneSize);
    if (rng.Chance(1, 2)) {
      alloc.Free(mem, p);
    }
  }
}

TEST(RedFatAllocator, AllocatorCostsComparable) {
  // §2.1: the low-fat allocator costs about the same as glibc malloc (~1%).
  // Amortized over a batch: the first allocation in a size class pays the
  // one-time segment carve, which the bump fast path then amortizes away.
  Memory mem;
  RedFatAllocator redfat;
  GlibcLikeAllocator glibc;
  constexpr int kOps = 256;
  uint64_t rf = 0;
  uint64_t gl = 0;
  for (int i = 0; i < kOps; ++i) {
    rf += redfat.Malloc(mem, 64).cycles;
    gl += glibc.Malloc(mem, 64).cycles;
  }
  EXPECT_LE(rf, gl + gl / 4) << "low-fat malloc must stay within ~25% of glibc";
}

}  // namespace
}  // namespace redfat
