#include <gtest/gtest.h>

#include "src/dbi/memcheck.h"
#include "src/workloads/builder.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

// p = malloc(64); q = malloc(64); p[input()] = 1 (8-byte elements).
BinaryImage IndexedWriteProgram() {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 64);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.MovRI(Reg::kRdi, 64);
  as.HostCall(HostFn::kMalloc);
  as.HostCall(HostFn::kInputU64);
  as.MovRI(Reg::kR14, 1);
  as.Store(Reg::kR14, MemBIS(Reg::kR12, Reg::kRax, 3, 0));
  pb.EmitExit(0);
  return pb.Finish();
}

TEST(Memcheck, CleanProgramNoReports) {
  RunConfig cfg;
  cfg.inputs = {2};
  const RunOutcome out = RunMemcheck(IndexedWriteProgram(), cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kExit);
  EXPECT_TRUE(out.errors.empty());
}

TEST(Memcheck, DetectsRedzoneHit) {
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.inputs = {8};  // p[8] -> trailing redzone
  const RunOutcome out = RunMemcheck(IndexedWriteProgram(), cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kExit);
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kBounds);
}

TEST(Memcheck, MissesRedzoneSkippingOverflow) {
  // Memcheck chunk stride for 64-byte payloads: AlignUp(16+16+64+16,16)=112,
  // payload at +32. Index 14 -> byte offset 112 = next chunk's payload.
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.inputs = {14};
  const RunOutcome out = RunMemcheck(IndexedWriteProgram(), cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kExit);
  EXPECT_TRUE(out.errors.empty()) << "redzone-only checking cannot see the skip";
}

TEST(Memcheck, DetectsUseAfterFree) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 32);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kFree);
  as.Load(Reg::kRax, MemAt(Reg::kR12, 0));
  pb.EmitExit(0);
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  const RunOutcome out = RunMemcheck(pb.Finish(), cfg);
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kUaf);
}

TEST(Memcheck, HardenPolicyAborts) {
  RunConfig cfg;
  cfg.policy = Policy::kHarden;
  cfg.inputs = {8};
  const RunOutcome out = RunMemcheck(IndexedWriteProgram(), cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
}

TEST(Memcheck, DispatchCostDominates) {
  // A loop-heavy program (not dominated by hostcall costs): the DBI
  // dispatch constant must make it several times slower than native.
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 64);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.MovRI(Reg::kRcx, 0);
  auto loop = as.NewLabel();
  as.Bind(loop);
  as.Store(Reg::kRcx, MemAt(Reg::kR12, 0));
  as.Load(Reg::kRax, MemAt(Reg::kR12, 0));
  as.AddI(Reg::kRcx, 1);
  as.CmpI(Reg::kRcx, 500);
  as.Jcc(Cond::kUlt, loop);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  RunConfig cfg;
  const RunOutcome mc = RunMemcheck(img, cfg);
  const RunOutcome base = RunImage(img, RuntimeKind::kBaseline, cfg);
  EXPECT_EQ(mc.outputs, base.outputs);
  EXPECT_GT(mc.result.cycles, 3 * base.result.cycles)
      << "DBI must be much slower than native";
}

// A guest double free is a reported memory error, not a host abort: under
// kHarden the run halts on it, under kLog the second free is skipped and
// the run finishes with the benign mode's output.
TEST(Memcheck, DoubleFreeIsReportedUnderBothPolicies) {
  const BinaryImage img = GenerateUafProgram(UafParams{});
  RunConfig benign;
  benign.inputs = {0};
  const RunOutcome base = RunMemcheck(img, benign);
  ASSERT_EQ(base.result.reason, HaltReason::kExit);
  ASSERT_TRUE(base.errors.empty());
  for (const Policy policy : {Policy::kHarden, Policy::kLog}) {
    RunConfig cfg;
    cfg.inputs = {2};
    cfg.policy = policy;
    const RunOutcome out = RunMemcheck(img, cfg);
    ASSERT_EQ(out.errors.size(), 1u) << static_cast<int>(policy);
    EXPECT_EQ(out.errors[0].kind, ErrorKind::kDoubleFree);
    EXPECT_TRUE(out.errors[0].has_addr);
    if (policy == Policy::kHarden) {
      EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
    } else {
      EXPECT_EQ(out.result.reason, HaltReason::kExit);
      EXPECT_EQ(out.outputs, base.outputs);
    }
  }
}

// Freeing a pointer that was never a payload base (here, an interior one)
// is reported as an invalid free and leaves the heap alone.
TEST(Memcheck, InvalidFreeIsReported) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 64);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.Lea(Reg::kRdi, MemAt(Reg::kR12, 8));
  as.HostCall(HostFn::kFree);
  as.MovRR(Reg::kRdi, Reg::kR12);
  as.HostCall(HostFn::kFree);  // the real object is still live
  pb.EmitExit(0);
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  const RunOutcome out = RunMemcheck(pb.Finish(), cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kExit);
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kFreelistCorruption);
}

TEST(Memcheck, ShadowStateLifecycle) {
  Memory mem;
  Memcheck mc;
  const uint64_t p = mc.Malloc(mem, 40).ptr;
  ASSERT_NE(p, 0u);
  EXPECT_EQ(mc.shadow().Query(p), ShadowState::kAllocated);
  EXPECT_EQ(mc.shadow().Query(p + 39), ShadowState::kAllocated);
  EXPECT_EQ(mc.shadow().Query(p - 8), ShadowState::kRedzone);
  EXPECT_EQ(mc.shadow().Query(p + 40), ShadowState::kRedzone);
  mc.Free(mem, p);
  EXPECT_EQ(mc.shadow().Query(p), ShadowState::kFree);
  // Quarantined: immediate re-malloc must not hand back p.
  EXPECT_NE(mc.Malloc(mem, 40).ptr, p);
}

TEST(ShadowMap, MarkAndQueryRanges) {
  ShadowMap shadow;
  shadow.Mark(0x1000, 64, ShadowState::kAllocated);
  shadow.Mark(0x1040, 16, ShadowState::kRedzone);
  EXPECT_EQ(shadow.Query(0x0), ShadowState::kDefault);
  EXPECT_EQ(shadow.Query(0x1000), ShadowState::kAllocated);
  EXPECT_EQ(shadow.QueryRange(0x1038, 8), ShadowState::kAllocated);
  EXPECT_EQ(shadow.QueryRange(0x1038, 16), ShadowState::kRedzone)
      << "a straddling access must see the redzone";
  shadow.Mark(0x1000, 64, ShadowState::kFree);
  EXPECT_EQ(shadow.QueryRange(0x1000, 8), ShadowState::kFree);
}

}  // namespace
}  // namespace redfat
