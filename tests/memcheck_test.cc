#include <gtest/gtest.h>

#include "src/dbi/memcheck.h"
#include "src/dbi/shadow_check.h"
#include "src/shadow/shadow.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"
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

// A Memcheck run goes through the harness's run body, so its sinks carry
// the run-level entries every other runtime writes, and they agree with the
// RunResult.
TEST(Memcheck, RunLevelTelemetryMatchesTheResult) {
  TelemetryRegistry telemetry;
  TraceWriter trace;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.inputs = {8};  // one redzone hit
  cfg.telemetry = &telemetry;
  cfg.trace = &trace;
  const RunOutcome out = RunMemcheck(IndexedWriteProgram(), cfg);
  ASSERT_EQ(out.result.reason, HaltReason::kExit);
  const TelemetrySnapshot snap = telemetry.Snapshot();
  EXPECT_EQ(snap.counters.at("vm.runs"), 1u);
  EXPECT_EQ(snap.counters.at("vm.instructions"), out.result.instructions);
  EXPECT_EQ(snap.counters.at("vm.cycles"), out.result.cycles);
  EXPECT_EQ(snap.counters.at("vm.explicit_writes"), out.result.explicit_writes);
  EXPECT_EQ(snap.counters.at("vm.mem_errors"), 1u);
  EXPECT_EQ(snap.gauges.at("vm.touched_pages"), static_cast<double>(out.touched_pages));
  EXPECT_GT(out.dispatch.blocks_built, 0u);
  EXPECT_NE(trace.ToJson().find("\"vm.run\""), std::string::npos);
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

// The Memcheck allocator marks the guest shadow map and the
// ShadowCheckObserver classifies accesses against it: p = malloc(40), then
// loads of p[32] (payload), p[-8] and p[40] (the two redzones), free(p), a
// load of p[0] (freed), and q = malloc(40), which the quarantine keeps off p.
TEST(Memcheck, ShadowStateLifecycle) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 40);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.Load(Reg::kRax, MemAt(Reg::kR12, 32));
  as.Load(Reg::kRax, MemAt(Reg::kR12, -8));
  as.Load(Reg::kRax, MemAt(Reg::kR12, 40));
  as.MovRR(Reg::kRdi, Reg::kR12);
  as.HostCall(HostFn::kFree);
  as.Load(Reg::kRax, MemAt(Reg::kR12, 0));
  as.MovRI(Reg::kRdi, 40);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kOutputU64);
  as.MovRR(Reg::kRdi, Reg::kR12);
  as.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);

  Vm vm;
  Memcheck mc;
  ShadowCheckObserver observer;
  vm.set_allocator(&mc);
  vm.set_observer(&observer);
  vm.set_policy(Policy::kLog);
  vm.LoadImage(pb.Finish());
  ASSERT_EQ(vm.Run().reason, HaltReason::kExit);
  ASSERT_EQ(vm.outputs().size(), 2u);
  const uint64_t q = vm.outputs()[0];
  const uint64_t p = vm.outputs()[1];
  EXPECT_NE(q, p) << "quarantined: an immediate re-malloc must not hand back p";

  ASSERT_EQ(vm.mem_errors().size(), 3u);
  EXPECT_EQ(vm.mem_errors()[0].kind, ErrorKind::kBounds);
  EXPECT_EQ(vm.mem_errors()[0].addr, p - 8);
  EXPECT_EQ(vm.mem_errors()[1].kind, ErrorKind::kBounds);
  EXPECT_EQ(vm.mem_errors()[1].addr, p + 40);
  EXPECT_EQ(vm.mem_errors()[2].kind, ErrorKind::kUaf);
  EXPECT_EQ(vm.mem_errors()[2].addr, p);
  EXPECT_EQ(observer.checks(), 4u);
  EXPECT_EQ(observer.errors(), 3u);

  const Memory& mem = vm.memory();
  EXPECT_EQ(ShadowAt(mem, p, 40), GuestShadow::kFreed);
  EXPECT_EQ(ShadowAt(mem, q, 40), GuestShadow::kOk);
  EXPECT_EQ(ShadowAt(mem, q - 8, 8), GuestShadow::kRedzone);
  EXPECT_EQ(ShadowAt(mem, q + 40, 8), GuestShadow::kRedzone);
}

TEST(GuestShadow, MarkAndQueryRanges) {
  Memory mem;
  ShadowMarkFree(mem, 0x1010, 0);
  EXPECT_EQ(mem.TouchedPages(), 0u) << "a 0-byte mark must write nothing";

  ShadowMarkMalloc(mem, 0x1010, 64);  // redzones [0x1000,0x1010), [0x1050,0x1060)
  EXPECT_EQ(ShadowAt(mem, 0x0, 8), GuestShadow::kOk) << "untouched memory";
  EXPECT_EQ(ShadowAt(mem, 0x1008, 8), GuestShadow::kRedzone);
  EXPECT_EQ(ShadowAt(mem, 0x1010, 64), GuestShadow::kOk);
  EXPECT_EQ(ShadowAt(mem, 0x1048, 8), GuestShadow::kOk);
  EXPECT_EQ(ShadowAt(mem, 0x1048, 16), GuestShadow::kRedzone)
      << "a straddling access must see the redzone";
  EXPECT_EQ(ShadowAt(mem, 0x1060, 8), GuestShadow::kOk);
  EXPECT_EQ(ShadowAt(mem, 0x100f, 0), GuestShadow::kRedzone) << "0 bytes read one granule";

  // A 20-byte payload ends mid-granule: its last granule is shared with the
  // trailing redzone, which wins.
  ShadowMarkMalloc(mem, 0x2010, 20);
  EXPECT_EQ(ShadowAt(mem, 0x2010, 16), GuestShadow::kOk);
  EXPECT_EQ(ShadowAt(mem, 0x2020, 1), GuestShadow::kRedzone);

  const size_t pages = mem.TouchedPages();
  ShadowMarkFree(mem, 0x1010, 0);
  EXPECT_EQ(ShadowAt(mem, 0x1010, 8), GuestShadow::kOk) << "a 0-byte mark must write nothing";
  EXPECT_EQ(mem.TouchedPages(), pages);

  ShadowMarkFree(mem, 0x1010, 64);
  EXPECT_EQ(ShadowAt(mem, 0x1000, 24), GuestShadow::kRedzone) << "the first bad granule wins";
  EXPECT_EQ(ShadowAt(mem, 0x1010, 8), GuestShadow::kFreed);
  EXPECT_EQ(ShadowAt(mem, 0x1048, 16), GuestShadow::kFreed);
  ShadowMarkMalloc(mem, 0x1010, 64);
  EXPECT_EQ(ShadowAt(mem, 0x1010, 64), GuestShadow::kOk) << "a fresh malloc clears stale state";
}

}  // namespace
}  // namespace redfat
