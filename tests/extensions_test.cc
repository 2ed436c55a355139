// Tests for the optional/extension features:
//   * RedzoneImpl::kShadow — the ASAN-style alternative redzone scheme
//     (§4.1), including the padding-overflow blind spot that motivates the
//     paper's metadata-in-redzone design;
//   * low-fat heap randomization (§8).
#include <gtest/gtest.h>

#include "src/core/harness.h"
#include "src/core/redfat.h"
#include "src/heap/lowfat.h"
#include "src/heap/redfat_allocator.h"
#include "src/heap/shadow_allocator.h"
#include "src/shadow/shadow.h"
#include "src/workloads/builder.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

RedFatOptions ShadowOpts() {
  RedFatOptions o;
  o.redzone_impl = RedzoneImpl::kShadow;
  return o;
}

InstrumentResult Instrument(const BinaryImage& img, const RedFatOptions& opts) {
  RedFatTool tool(opts);
  Result<InstrumentResult> r = tool.Instrument(img);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error());
  return std::move(r).value();
}

// p = malloc(size); q = malloc(size); access p[input()] (8-byte elems).
BinaryImage IndexedProgram(uint64_t size, bool read = false) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, size);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.MovRI(Reg::kRdi, size);
  as.HostCall(HostFn::kMalloc);
  as.HostCall(HostFn::kInputU64);
  if (read) {
    as.Load(Reg::kR14, MemBIS(Reg::kR12, Reg::kRax, 3, 0));
  } else {
    as.MovRI(Reg::kR14, 1);
    as.Store(Reg::kR14, MemBIS(Reg::kR12, Reg::kRax, 3, 0));
  }
  pb.EmitExit(0);
  return pb.Finish();
}

TEST(ShadowImpl, ValidProgramRunsClean) {
  const BinaryImage img = IndexedProgram(64);
  const InstrumentResult ir = Instrument(img, ShadowOpts());
  RunConfig cfg;
  cfg.inputs = {3};
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFatShadow, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kExit) << out.result.fault_message;
  EXPECT_TRUE(out.errors.empty());
}

TEST(ShadowImpl, DetectsRedzoneHit) {
  const BinaryImage img = IndexedProgram(64);
  const InstrumentResult ir = Instrument(img, ShadowOpts());
  RunConfig cfg;
  cfg.inputs = {8};  // p[8]: trailing shadow redzone
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFatShadow, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
}

TEST(ShadowImpl, DetectsUseAfterFree) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 32);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kFree);
  as.Load(Reg::kRax, MemAt(Reg::kR12, 0));
  pb.EmitExit(0);
  const InstrumentResult ir = Instrument(pb.Finish(), ShadowOpts());
  RunConfig cfg;
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFatShadow, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kUaf);
}

TEST(ShadowImpl, DetectsNonIncrementalSkipViaLowFatPart) {
  const BinaryImage img = IndexedProgram(64);
  const InstrumentResult ir = Instrument(img, ShadowOpts());
  RunConfig cfg;
  cfg.inputs = {10};  // skips the redzone into q's payload
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFatShadow, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort)
      << "the concatenated LowFat class-bounds check still catches skips";
}

TEST(ShadowImpl, MissesPaddingOverflowUnlikeMetadataImpl) {
  // malloc(600) lands in the 1024-byte class: ~408 bytes of padding beyond
  // the 16-byte trailing shadow redzone. An access into deep padding:
  //   * metadata impl: UB > BASE+16+SIZE -> caught (exact malloc bounds);
  //   * shadow impl: shadow says OK, class bounds say OK -> missed.
  const BinaryImage img = IndexedProgram(600);
  RunConfig cfg;
  cfg.inputs = {80};  // byte offset 640: past payload+redzone, within class

  const InstrumentResult meta = Instrument(img, RedFatOptions{});
  EXPECT_EQ(RunImage(meta.image, RuntimeKind::kRedFat, cfg).result.reason,
            HaltReason::kMemErrorAbort)
      << "metadata-in-redzone checks the exact malloc size";

  const InstrumentResult shadow = Instrument(img, ShadowOpts());
  EXPECT_EQ(RunImage(shadow.image, RuntimeKind::kRedFatShadow, cfg).result.reason,
            HaltReason::kExit)
      << "the ASAN-style scheme cannot see padding overflows (paper §4.2)";
}

TEST(ShadowImpl, SynthProgramBehavesIdentically) {
  SynthParams p;
  p.seed = 77;
  const BinaryImage img = GenerateSynthProgram(p);
  RunConfig cfg;
  cfg.inputs = RefInputs(15);
  const RunOutcome base = RunImage(img, RuntimeKind::kBaseline, cfg);
  const InstrumentResult ir = Instrument(img, ShadowOpts());
  const RunOutcome hard = RunImage(ir.image, RuntimeKind::kRedFatShadow, cfg);
  EXPECT_EQ(hard.result.reason, HaltReason::kExit) << hard.result.fault_message;
  EXPECT_EQ(hard.outputs, base.outputs);
  EXPECT_TRUE(hard.errors.empty());
}

TEST(ShadowImpl, AllocatorShadowLifecycle) {
  Memory mem;
  ShadowRedFatAllocator alloc;
  const uint64_t p = alloc.Malloc(mem, 40).ptr;
  ASSERT_NE(p, 0u);
  EXPECT_EQ(ShadowAt(mem, p, 1), GuestShadow::kOk);
  EXPECT_EQ(ShadowAt(mem, p + 39, 1), GuestShadow::kOk);
  EXPECT_EQ(ShadowAt(mem, p - 8, 1), GuestShadow::kRedzone);
  EXPECT_EQ(ShadowAt(mem, p + 40, 1), GuestShadow::kRedzone);
  alloc.Free(mem, p);
  EXPECT_EQ(ShadowAt(mem, p, 1), GuestShadow::kFreed);
}

TEST(HeapRandomization, ChangesPlacementDeterministicallyPerSeed) {
  Memory mem;
  LowFatHeap plain, r1, r2, r1b;
  r1.EnableRandomization(111);
  r1b.EnableRandomization(111);
  r2.EnableRandomization(222);
  const uint64_t a = plain.Alloc(mem, 64).slot;
  const uint64_t b = r1.Alloc(mem, 64).slot;
  const uint64_t c = r2.Alloc(mem, 64).slot;
  EXPECT_EQ(b, r1b.Alloc(mem, 64).slot) << "same seed, same layout";
  EXPECT_NE(a, b) << "randomized start offset";
  EXPECT_NE(b, c) << "different seeds differ";
  // Invariants hold regardless of randomization.
  EXPECT_EQ(LowFatBase(b), b);
  EXPECT_EQ(LowFatSize(b), 64u);
}

TEST(HeapRandomization, RandomizedReuseOrder) {
  Memory mem;
  LowFatHeap heap(/*quarantine_slots=*/0);
  heap.EnableRandomization(5);
  std::vector<uint64_t> slots;
  for (int i = 0; i < 16; ++i) {
    slots.push_back(heap.Alloc(mem, 32).slot);
  }
  for (uint64_t s : slots) {
    heap.Free(mem, s);
  }
  // LIFO would return slots back-to-front; the two-freelist coin-flip reuse
  // should deviate somewhere within 16 draws.
  bool deviated = false;
  for (int i = 15; i >= 0; --i) {
    if (heap.Alloc(mem, 32).slot != slots[static_cast<size_t>(i)]) {
      deviated = true;
      break;
    }
  }
  EXPECT_TRUE(deviated);
}

TEST(HeapRandomization, HardenedProgramStillWorks) {
  // End-to-end: randomized libredfat runtime under an instrumented binary.
  SynthParams p;
  p.seed = 31;
  const BinaryImage img = GenerateSynthProgram(p);
  const InstrumentResult ir = Instrument(img, RedFatOptions{});
  Vm vm;
  RedFatAllocator alloc;
  alloc.EnableHeapRandomization(0xd1ce);
  WriteLowFatTables(&vm.memory());
  vm.set_allocator(&alloc);
  vm.set_inputs(RefInputs(10));
  vm.LoadImage(ir.image);
  const RunResult r = vm.Run();
  EXPECT_EQ(r.reason, HaltReason::kExit) << r.fault_message;
  EXPECT_TRUE(vm.mem_errors().empty());
}

}  // namespace
}  // namespace redfat
