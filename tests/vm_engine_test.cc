// Differential dispatch-engine equivalence (ISSUE 5 + ISSUE 8 contract):
// every dispatch mode of the superblock engine — plain block, specialized
// handlers, and direct chaining with trace formation — must reproduce the
// stepper bit-for-bit: instructions, cycles, explicit reads/writes, outputs,
// mem-error reports, prof counts, telemetry snapshots and trace slices — for
// every golden config × workload, for randomized programs, and for every
// edge the block boundary and chaining logic has: instruction limits landing
// mid-block / mid-chain / mid-trace, mem-error aborts at the same points,
// hostcall/trap termination, one-instruction self-loops, code-cache flushes
// with links pending and traces recording, TLB + chain invalidation
// across LoadImage, a hardened loop halted at every instruction of a traced
// window (same registers, flags and heap-event counts) — and observed runs:
// the debug tier's shadow checker and Memcheck, planned on the fast engine,
// and both again behind a decorator that has no plan, in every mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/forensics_report.h"
#include "src/core/harness.h"
#include "src/core/policy.h"
#include "src/core/redfat.h"
#include "src/dbi/memcheck.h"
#include "src/dbi/shadow_check.h"
#include "src/heap/forensics.h"
#include "src/heap/legacy_heap.h"
#include "src/heap/lowfat.h"
#include "src/heap/redfat_allocator.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"
#include "src/vm/profiler.h"
#include "src/workloads/builder.h"
#include "src/workloads/cve.h"
#include "src/workloads/kraken.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

// Everything a guest run can externally produce, flattened to comparable
// strings so a mismatch names the diverging field directly.
struct RunFingerprint {
  std::string result;
  std::vector<uint64_t> outputs;
  std::vector<std::string> errors;
  std::vector<std::string> prof_counts;
  std::string counters;
  uint64_t touched_pages = 0;
  std::string metrics;  // telemetry snapshot JSON ("" when not attached)
  std::string trace;    // trace-event JSON ("" when not attached)
  std::string extra;    // whatever else a differential leg produced
};

std::string FormatResult(const RunResult& r) {
  return StrFormat("reason=%d exit=%llu insns=%llu cycles=%llu reads=%llu writes=%llu "
                   "fault='%s'",
                   static_cast<int>(r.reason),
                   static_cast<unsigned long long>(r.exit_status),
                   static_cast<unsigned long long>(r.instructions),
                   static_cast<unsigned long long>(r.cycles),
                   static_cast<unsigned long long>(r.explicit_reads),
                   static_cast<unsigned long long>(r.explicit_writes),
                   r.fault_message.c_str());
}

RunFingerprint Fingerprint(const RunOutcome& out, const std::string& metrics,
                           const std::string& trace) {
  RunFingerprint fp;
  fp.result = FormatResult(out.result);
  fp.outputs = out.outputs;
  for (const MemErrorReport& e : out.errors) {
    fp.errors.push_back(StrFormat("site=%u kind=%d rip=0x%llx idx=%llu addr=%d:0x%llx",
                                  e.site, static_cast<int>(e.kind),
                                  static_cast<unsigned long long>(e.rip),
                                  static_cast<unsigned long long>(e.instruction_index),
                                  e.has_addr ? 1 : 0,
                                  static_cast<unsigned long long>(e.addr)));
  }
  std::vector<std::pair<uint32_t, uint64_t>> counters(out.counters.begin(),
                                                      out.counters.end());
  std::sort(counters.begin(), counters.end());
  for (const auto& [site, n] : counters) {
    fp.counters += StrFormat("%u=%llu;", site, static_cast<unsigned long long>(n));
  }
  std::vector<std::pair<uint32_t, Vm::ProfCounts>> prof(out.prof_counts.begin(),
                                                        out.prof_counts.end());
  std::sort(prof.begin(), prof.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [site, pc] : prof) {
    fp.prof_counts.push_back(StrFormat("%u:%llu/%llu", site,
                                       static_cast<unsigned long long>(pc.passes),
                                       static_cast<unsigned long long>(pc.fails)));
  }
  fp.touched_pages = out.touched_pages;
  fp.metrics = metrics;
  fp.trace = trace;
  return fp;
}

// The dispatch-mode axis: reference stepper, plain superblocks, specialized
// handlers, and full chaining + traces (the production default). Every test
// run through ExpectEnginesAgree is a |kModes|-way differential.
struct EngineMode {
  const char* name;
  VmEngine engine;
  bool chain;
  bool specialize;
};

constexpr EngineMode kModes[] = {
    {"step", VmEngine::kStep, false, false},
    {"block", VmEngine::kBlock, false, false},
    {"spec", VmEngine::kBlock, false, true},
    {"chained", VmEngine::kBlock, true, true},
};
constexpr size_t kNumModes = sizeof(kModes) / sizeof(kModes[0]);

// One differential leg: runs the program under `c` (engine and dispatch
// knobs already set) and returns the outcome. Anything else the run produces
// that must match across modes goes into *extra.
using Leg = std::function<RunOutcome(const RunConfig& c, std::string* extra)>;

// Runs `leg` under every dispatch mode with identical config (telemetry +
// trace attached when `observe`) and asserts every produced artifact matches
// the stepper's. Returns the stepper's fingerprint.
RunFingerprint ExpectEnginesAgree(const Leg& leg, const RunConfig& cfg, bool observe,
                                  const std::string& what) {
  RunFingerprint ref;
  for (size_t i = 0; i < kNumModes; ++i) {
    TelemetryRegistry telemetry;
    TraceWriter trace;
    RunConfig c = cfg;
    c.engine = kModes[i].engine;
    c.chain = kModes[i].chain;
    c.specialize = kModes[i].specialize;
    if (observe) {
      c.telemetry = &telemetry;
      c.trace = &trace;
    }
    std::string extra;
    const RunOutcome out = leg(c, &extra);
    RunFingerprint fp = Fingerprint(out, observe ? telemetry.Snapshot().ToJson() : "",
                                    observe ? trace.ToJson() : "");
    fp.extra = std::move(extra);
    if (i == 0) {
      ref = std::move(fp);
      continue;
    }
    const std::string tag = what + " [" + kModes[i].name + "]";
    EXPECT_EQ(ref.result, fp.result) << tag;
    EXPECT_EQ(ref.outputs, fp.outputs) << tag;
    EXPECT_EQ(ref.errors, fp.errors) << tag;
    EXPECT_EQ(ref.prof_counts, fp.prof_counts) << tag;
    EXPECT_EQ(ref.counters, fp.counters) << tag;
    EXPECT_EQ(ref.touched_pages, fp.touched_pages) << tag;
    EXPECT_EQ(ref.metrics, fp.metrics) << tag;
    EXPECT_EQ(ref.trace, fp.trace) << tag;
    EXPECT_EQ(ref.extra, fp.extra) << tag;
  }
  return ref;
}

void ExpectEnginesAgree(const BinaryImage& img, RuntimeKind kind, const RunConfig& cfg,
                        bool observe, const std::string& what) {
  ExpectEnginesAgree([&](const RunConfig& c, std::string*) { return RunImage(img, kind, c); },
                     cfg, observe, what);
}

// Forwards OnInstruction to `inner` and supplies no plan, like a timing or
// sampling decorator: the fast engine must call it before every instruction
// and still reproduce the stepper.
class ForwardingObserver : public ExecObserver {
 public:
  explicit ForwardingObserver(ExecObserver* inner) : inner_(inner) {}
  uint64_t OnInstruction(Vm& vm, uint64_t addr, const Instruction& insn) override {
    ++calls;
    return inner_->OnInstruction(vm, addr, insn);
  }
  uint64_t calls = 0;

 private:
  ExecObserver* inner_;
};

ResolvedPolicy ResolveTier(HardenTier tier) {
  HardeningPolicy p;
  p.tier = tier;
  return p.Resolve().value();
}

// The debug tier as `rfrun --harden=debug --metrics-epoch --error-report
// --sample-period` runs it: ShadowCheckObserver over redfat-debug with a
// forensic ring, a sampler and, when the differential attaches telemetry,
// an epoch hook cutting delta snapshots. `forward` hides the observer
// behind a ForwardingObserver.
Leg DebugTierLeg(const BinaryImage& hardened, bool forward) {
  return [&hardened, forward](const RunConfig& cfg, std::string* extra) {
    ShadowCheckObserver shadow;
    ForwardingObserver forwarder(&shadow);
    ForensicRing ring;
    SampleProfiler sampler(97);
    TelemetrySnapshot prev;
    RunConfig c = cfg;
    c.observer = forward ? static_cast<ExecObserver*>(&forwarder) : &shadow;
    c.forensics = &ring;
    c.sampler = &sampler;
    if (c.telemetry != nullptr) {
      c.metrics_epoch = 3001;
      c.on_epoch = [&] {
        const TelemetrySnapshot cur = c.telemetry->Snapshot();
        *extra += DeltaTelemetrySnapshot(cur, prev).ToJson() + "\n";
        prev = cur;
      };
    }
    const RunOutcome out = RunImage(hardened, RuntimeKind::kRedFatDebug, c);
    *extra += ForensicReportsToJson(out.forensic_reports, ring) + "\n" + sampler.ToFolded();
    *extra += StrFormat("checks=%llu errors=%llu\n",
                        static_cast<unsigned long long>(shadow.checks()),
                        static_cast<unsigned long long>(shadow.errors()));
    return out;
  };
}

// Memcheck as RunMemcheck runs it, or, with `forward`, the same run (the
// Memcheck allocator and a ShadowCheckObserver) with the observer reached
// only through a ForwardingObserver.
Leg MemcheckLeg(const BinaryImage& img, bool forward) {
  return [&img, forward](const RunConfig& c, std::string*) {
    if (!forward) {
      return RunMemcheck(img, c);
    }
    Vm vm(c.model);
    Memcheck memcheck;
    ShadowCheckObserver shadow;
    ForwardingObserver forwarder(&shadow);
    vm.set_allocator(&memcheck);
    RunConfig forwarded = c;
    forwarded.observer = &forwarder;
    return RunBound(vm, {&img}, forwarded);
  };
}

struct GoldenConfig {
  const char* name;
  RedFatOptions opts;
  RuntimeKind runtime;
};

std::vector<GoldenConfig> GoldenConfigs() {
  RedFatOptions shadow;
  shadow.redzone_impl = RedzoneImpl::kShadow;
  return {
      {"unoptimized", RedFatOptions::Unoptimized(), RuntimeKind::kRedFat},
      {"elim", RedFatOptions::Elim(), RuntimeKind::kRedFat},
      {"batch", RedFatOptions::Batch(), RuntimeKind::kRedFat},
      {"merge", RedFatOptions::Merge(), RuntimeKind::kRedFat},
      {"no-size", RedFatOptions::NoSize(), RuntimeKind::kRedFat},
      {"no-reads", RedFatOptions::NoReads(), RuntimeKind::kRedFat},
      {"profile", RedFatOptions::Profile(), RuntimeKind::kRedFat},
      {"shadow", shadow, RuntimeKind::kRedFatShadow},
  };
}

// (a) Every golden config × the determinism-stress workloads, with the full
// observability surface attached (telemetry + trace), under the matching
// hardened runtime.
TEST(VmEngine, GoldenConfigsAgreeOnSynth) {
  SynthParams p;
  p.seed = 0xd57e55;
  p.mem_pct = 35;
  p.stream_pct = 6;
  p.churn_pct = 4;
  p.max_accesses_per_ptr = 4;
  const BinaryImage img = GenerateSynthProgram(p);
  for (const GoldenConfig& cfg : GoldenConfigs()) {
    RedFatTool tool(cfg.opts);
    Result<InstrumentResult> ir = tool.Instrument(img);
    ASSERT_TRUE(ir.ok()) << cfg.name << ": " << ir.error();
    RunConfig rc;
    rc.inputs = RefInputs(15);
    ExpectEnginesAgree(ir.value().image, cfg.runtime, rc, /*observe=*/true,
                       std::string("synth-mid/") + cfg.name);
  }
}

TEST(VmEngine, GoldenConfigsAgreeOnKraken) {
  const KrakenBenchmark& bench = KrakenSuite().front();
  const BinaryImage img = BuildKrakenBenchmark(bench);
  for (const GoldenConfig& cfg : GoldenConfigs()) {
    RedFatTool tool(cfg.opts);
    Result<InstrumentResult> ir = tool.Instrument(img);
    ASSERT_TRUE(ir.ok()) << cfg.name << ": " << ir.error();
    RunConfig rc;
    rc.inputs = RefInputs(40);
    ExpectEnginesAgree(ir.value().image, cfg.runtime, rc, /*observe=*/true,
                       bench.name + "/" + cfg.name);
  }
}

// Memcheck plans every instruction; its charges and checks must land at the
// same points inside blocks, chains and traces as under the stepper, and
// the same again when it is reached through a decorator with no plan.
TEST(VmEngine, MemcheckObserverAgrees) {
  SynthParams p;
  p.seed = 77;
  p.churn_pct = 4;
  const BinaryImage img = GenerateSynthProgram(p);
  RunConfig base;
  base.inputs = RefInputs(15);
  for (const bool forward : {false, true}) {
    ExpectEnginesAgree(MemcheckLeg(img, forward), base, /*observe=*/true,
                       forward ? "memcheck synth (forwarded)" : "memcheck synth");
  }
}

// The debug tier: ShadowCheckObserver over redfat-debug with every sink a
// `rfrun --harden=debug` run can attach, on benign workloads and on the
// uaf workload's detection under both policies.
TEST(VmEngine, DebugTierObserverAgrees) {
  const RedFatTool debug(ResolveTier(HardenTier::kDebug));
  SynthParams p;
  p.seed = 0xd57e55;
  p.mem_pct = 35;
  p.churn_pct = 4;
  struct Case {
    std::string name;
    BinaryImage image;
    std::vector<uint64_t> inputs;
  };
  std::vector<Case> cases = {
      {"synth", GenerateSynthProgram(p), RefInputs(15)},
      {"kraken", BuildKrakenBenchmark(KrakenSuite().front()), RefInputs(40)},
      {"uaf", GenerateUafProgram(UafParams{}), {1}},
      {"double-free", GenerateUafProgram(UafParams{}), {2}},
  };
  for (const Case& c : cases) {
    Result<InstrumentResult> ir = debug.Instrument(c.image);
    ASSERT_TRUE(ir.ok()) << c.name << ": " << ir.error();
    for (const Policy policy : {Policy::kHarden, Policy::kLog}) {
      RunConfig cfg;
      cfg.inputs = c.inputs;
      cfg.policy = policy;
      for (const bool forward : {false, true}) {
        ExpectEnginesAgree(DebugTierLeg(ir.value().image, forward), cfg, /*observe=*/true,
                           StrFormat("debug %s policy=%d%s", c.name.c_str(),
                                     static_cast<int>(policy), forward ? " (forwarded)" : ""));
      }
    }
  }
}

// Memcheck on the Table 2 CVE images, attack and benign inputs, both
// policies: detections, addresses and cycles must match the stepper's.
TEST(VmEngine, MemcheckAgreesOnTable2Cves) {
  for (const VulnCase& vc : CveCases()) {
    for (const auto& inputs : {vc.attack_inputs, vc.benign_inputs}) {
      for (const Policy policy : {Policy::kHarden, Policy::kLog}) {
        RunConfig cfg;
        cfg.inputs = inputs;
        cfg.policy = policy;
        for (const bool forward : {false, true}) {
          ExpectEnginesAgree(MemcheckLeg(vc.image, forward), cfg, /*observe=*/true,
                             StrFormat("memcheck %s input=%llu policy=%d%s", vc.name.c_str(),
                                       static_cast<unsigned long long>(inputs.at(0)),
                                       static_cast<int>(policy),
                                       forward ? " (forwarded)" : ""));
        }
      }
    }
  }
}

// Detections made by ShadowCheckObserver itself on a fast-tier image (no
// inline check covers the access): the overflowing store sits mid-block,
// and under kHarden the halting instruction's charge is still added, so
// cycles match the stepper's exactly.
TEST(VmEngine, ShadowCheckHaltsMidBlockWithTheStepperCycles) {
  // One ambiguous store 64 bytes past a 64-byte object's base (the
  // trailing redzone), three instructions into its block.
  ProgramBuilder overflow;
  {
    Assembler& as = overflow.text();
    as.MovRI(Reg::kRdi, 64);
    as.HostCall(HostFn::kMalloc);
    as.MovRR(Reg::kRcx, Reg::kRax);
    as.AddI(Reg::kRcx, 64);
    as.Store(Reg::kRdx, MemBIS(Reg::kNone, Reg::kRcx, 0, 0));
    overflow.EmitExit(0);
  }
  // A store through the stale pointer of a freed object.
  ProgramBuilder stale;
  {
    Assembler& as = stale.text();
    as.MovRI(Reg::kRdi, 64);
    as.HostCall(HostFn::kMalloc);
    as.MovRR(Reg::kRcx, Reg::kRax);
    as.MovRR(Reg::kRdi, Reg::kRax);
    as.HostCall(HostFn::kFree);
    as.Store(Reg::kRdx, MemBIS(Reg::kNone, Reg::kRcx, 0, 0));
    stale.EmitExit(0);
  }
  const RedFatTool fast(ResolveTier(HardenTier::kFast));
  const std::pair<const char*, BinaryImage> programs[] = {
      {"overflow", overflow.Finish()}, {"stale store", stale.Finish()}};
  for (const auto& [name, program] : programs) {
    const InstrumentResult ir = fast.Instrument(program).value();
    ASSERT_TRUE(ir.sites.empty()) << name << ": the access must be left to the observer";
    for (const Policy policy : {Policy::kHarden, Policy::kLog}) {
      RunConfig cfg;
      cfg.policy = policy;
      for (const bool forward : {false, true}) {
        ExpectEnginesAgree(DebugTierLeg(ir.image, forward), cfg, /*observe=*/true,
                           StrFormat("%s policy=%d%s", name, static_cast<int>(policy),
                                     forward ? " (forwarded)" : ""));
      }
      ShadowCheckObserver observer;
      RunConfig chained = cfg;
      chained.observer = &observer;
      const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFatDebug, chained);
      EXPECT_EQ(out.result.reason, policy == Policy::kHarden ? HaltReason::kMemErrorAbort
                                                             : HaltReason::kExit)
          << name;
      EXPECT_EQ(out.errors.size(), 1u) << name;
    }
  }
}

// (b) Randomized programs from the fuzz generator: arbitrary byte soup must
// fault/halt/limit at the identical instruction with identical state.
TEST(VmEngine, RandomProgramsAgree) {
  Rng rng(0xfeed);
  for (int trial = 0; trial < 200; ++trial) {
    BinaryImage img;
    img.entry = kCodeBase;
    Section text;
    text.kind = Section::Kind::kText;
    text.vaddr = kCodeBase;
    for (int i = 0; i < 256; ++i) {
      text.bytes.push_back(static_cast<uint8_t>(rng.Next()));
    }
    img.sections.push_back(std::move(text));
    RunConfig cfg;
    cfg.instruction_limit = 5000;
    cfg.policy = Policy::kLog;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("random trial %d", trial));
  }
}

// (c) The instruction limit must halt at the exact same instruction even
// when it lands in the middle of a long straight-line block.
TEST(VmEngine, InstructionLimitMidBlock) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  for (int i = 0; i < 60; ++i) {
    a.AddI(Reg::kRax, 1);  // one long straight-line run
  }
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  for (uint64_t limit = 1; limit <= 64; ++limit) {
    RunConfig cfg;
    cfg.instruction_limit = limit;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("limit=%llu", static_cast<unsigned long long>(limit)));
  }
}

// A mem-error abort raised by the observer (memcheck) in the middle of a
// block must stop at the same instruction with the same report and cycles.
TEST(VmEngine, MemErrorAbortMidBlock) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  a.MovRI(Reg::kRdi, 64);
  a.HostCall(HostFn::kMalloc);
  a.MovRR(Reg::kR12, Reg::kRax);
  // Straight-line run: valid, valid, REDZONE, valid — the abort lands two
  // instructions into a four-load block.
  a.Load(Reg::kR14, MemAt(Reg::kR12, 0));
  a.Load(Reg::kR14, MemAt(Reg::kR12, 8));
  a.Load(Reg::kR14, MemAt(Reg::kR12, -8));
  a.Load(Reg::kR14, MemAt(Reg::kR12, 16));
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  for (const Policy policy : {Policy::kHarden, Policy::kLog}) {
    RunConfig cfg;
    cfg.policy = policy;
    for (const bool forward : {false, true}) {
      const RunFingerprint ref = ExpectEnginesAgree(
          MemcheckLeg(img, forward), cfg, /*observe=*/true,
          StrFormat("policy=%d%s", static_cast<int>(policy), forward ? " (forwarded)" : ""));
      ASSERT_FALSE(ref.errors.empty());
    }
  }
}

// Hostcalls and traps terminate blocks; a trap mid-stream under kLog resumes
// with the next block, under kHarden aborts — identically in both engines.
TEST(VmEngine, HostcallAndTrapTermination) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  a.MovRI(Reg::kRax, 5);
  a.Trap(TrapCode::kMemError, PackErrorArg(9, ErrorKind::kBounds));
  a.AddI(Reg::kRax, 2);
  a.MovRR(Reg::kRdi, Reg::kRax);
  a.HostCall(HostFn::kOutputU64);
  a.Trap(TrapCode::kProfPass, 3);
  a.Trap(TrapCode::kProfFail, 3);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  for (const Policy policy : {Policy::kHarden, Policy::kLog}) {
    RunConfig cfg;
    cfg.policy = policy;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("policy=%d", static_cast<int>(policy)));
  }
}

// A one-instruction self-branching loop is the smallest possible block; the
// cache must hit it every iteration and the limit must still be exact.
TEST(VmEngine, SelfBranchingOneInstructionLoop) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  auto spin = a.NewLabel();
  a.Bind(spin);
  a.Jmp(spin);
  const BinaryImage img = pb.Finish();
  RunConfig cfg;
  cfg.instruction_limit = 12345;
  ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false, "self-loop");
}

// Two hot blocks whose entry addresses are exactly 4096 bytes apart share
// their low address bits, the layout that collided in a direct-mapped code
// cache: the computed value must be right whatever the cache does with
// them.
TEST(VmEngine, CodeCacheCollisions) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  auto f1 = a.NewLabel();
  auto f2 = a.NewLabel();
  auto main_l = a.NewLabel();
  a.Jmp(main_l);
  const uint64_t f1_addr = a.Here();
  a.Bind(f1);
  a.AddI(Reg::kR15, 1);
  a.Ret();
  while (a.Here() < f1_addr + 4096) {
    a.Nop();
  }
  ASSERT_EQ(a.Here(), f1_addr + 4096);
  a.Bind(f2);
  a.AddI(Reg::kR15, 3);
  a.Ret();
  a.Bind(main_l);
  a.MovRI(Reg::kR15, 0);
  a.MovRI(Reg::kR8, 500);
  auto loop = a.NewLabel();
  a.Bind(loop);
  a.Call(f1);
  a.Call(f2);
  a.SubI(Reg::kR8, 1);
  a.CmpI(Reg::kR8, 0);
  a.Jcc(Cond::kNe, loop);
  a.MovRR(Reg::kRdi, Reg::kR15);
  a.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  RunConfig cfg;
  ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false, "collisions");
  // And the computed value is right, not merely engine-consistent.
  RunConfig block_cfg;
  block_cfg.engine = VmEngine::kBlock;
  const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, block_cfg);
  ASSERT_EQ(out.outputs.size(), 1u);
  EXPECT_EQ(out.outputs[0], 2000u);
}

// LoadImage must invalidate both the block cache and the memory TLB: a
// second image at overlapping addresses must not execute (or read) stale
// state from the first.
TEST(VmEngine, TlbAndBlockCacheInvalidationAcrossLoadImage) {
  auto build = [](uint64_t value) {
    ProgramBuilder pb;
    Assembler& a = pb.text();
    const uint64_t g = pb.AddDataU64({value});
    a.Load(Reg::kRdi, MemAbs(static_cast<int32_t>(g)));
    a.HostCall(HostFn::kOutputU64);
    pb.EmitExit(static_cast<int32_t>(value & 0xff));
    return pb.Finish();
  };
  const BinaryImage first = build(41);
  const BinaryImage second = build(77);
  for (const VmEngine engine : {VmEngine::kStep, VmEngine::kBlock}) {
    Vm vm;
    GlibcLikeAllocator alloc;
    vm.set_allocator(&alloc);
    vm.set_engine(engine);
    vm.LoadImage(first);
    const RunResult r1 = vm.Run();
    EXPECT_EQ(r1.exit_status, 41u);
    // Reload at the same addresses: decoded blocks and cached page
    // translations for the old image must not leak into this run.
    vm.LoadImage(second);
    const RunResult r2 = vm.Run();
    EXPECT_EQ(r2.exit_status, 77u);
    ASSERT_EQ(vm.outputs().size(), 2u);
    EXPECT_EQ(vm.outputs()[0], 41u);
    EXPECT_EQ(vm.outputs()[1], 77u);
  }
}

// The streaming-epoch hook fires at the same instruction boundaries under
// both engines, and chained deltas merge back to the one-shot snapshot.
TEST(VmEngine, EpochDeltasMergeToOneShot) {
  SynthParams p;
  p.seed = 99;
  p.churn_pct = 3;
  const BinaryImage img = GenerateSynthProgram(p);
  RedFatTool tool(RedFatOptions::Merge());
  Result<InstrumentResult> ir = tool.Instrument(img);
  ASSERT_TRUE(ir.ok()) << ir.error();

  std::vector<size_t> epoch_counts;
  std::vector<std::string> one_shots;
  for (const VmEngine engine : {VmEngine::kStep, VmEngine::kBlock}) {
    TelemetryRegistry telemetry;
    std::vector<TelemetrySnapshot> deltas;
    TelemetrySnapshot prev;
    RunConfig cfg;
    cfg.engine = engine;
    cfg.inputs = RefInputs(10);
    cfg.telemetry = &telemetry;
    cfg.metrics_epoch = 5000;
    cfg.on_epoch = [&]() {
      const TelemetrySnapshot cur = telemetry.Snapshot();
      deltas.push_back(DeltaTelemetrySnapshot(cur, prev));
      prev = cur;
    };
    const RunOutcome out = RunImage(ir.value().image, RuntimeKind::kRedFat, cfg);
    ASSERT_EQ(out.result.reason, HaltReason::kExit);
    ASSERT_FALSE(deltas.empty()) << "run too short to cross an epoch";
    // Closing epoch: everything after the last boundary, including the
    // harness's post-run counters.
    const TelemetrySnapshot final_snap = telemetry.Snapshot();
    deltas.push_back(DeltaTelemetrySnapshot(final_snap, prev));
    EXPECT_EQ(MergeTelemetrySnapshots(deltas).ToJson(), final_snap.ToJson())
        << "engine=" << static_cast<int>(engine);
    epoch_counts.push_back(deltas.size());
    one_shots.push_back(final_snap.ToJson());
  }
  // The hook fired at the same instruction boundaries in both engines and
  // observed identical state at each.
  EXPECT_EQ(epoch_counts[0], epoch_counts[1]);
  EXPECT_EQ(one_shots[0], one_shots[1]);
}

// ---- Chaining + trace-formation differential suite (ISSUE 8) ----

// A loop hot enough to pass kTraceThreshold, with an internal conditional
// branch so the body spans multiple superblocks (the trace gets interior
// guards) and a data-dependent side that diverges on the final iterations.
BinaryImage BuildHotLoop(uint64_t iters) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  a.MovRI(Reg::kR15, 0);
  a.MovRI(Reg::kR8, static_cast<int64_t>(iters));
  auto loop = a.NewLabel();
  auto skip = a.NewLabel();
  a.Bind(loop);
  a.CmpI(Reg::kR8, 3);
  a.Jcc(Cond::kUgt, skip);  // taken until the last three iterations
  a.AddI(Reg::kR15, 1000);
  a.Bind(skip);
  a.AddI(Reg::kR15, 2);
  a.SubI(Reg::kR8, 1);
  a.CmpI(Reg::kR8, 0);
  a.Jcc(Cond::kNe, loop);
  a.MovRR(Reg::kRdi, Reg::kR15);
  a.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  return pb.Finish();
}

// Sanity: the hot-loop workload really does drive the chained engine into
// its steady state — links patched, blocks chained, at least one trace
// formed and run — so the limit/abort tests below genuinely land mid-chain
// and mid-trace rather than in cold dispatch.
TEST(VmChaining, HotLoopFormsChainsAndTraces) {
  const BinaryImage img = BuildHotLoop(400);
  RunConfig cfg;  // chained production defaults
  const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, cfg);
  ASSERT_EQ(out.result.reason, HaltReason::kExit);
  ASSERT_EQ(out.outputs.size(), 1u);
  EXPECT_EQ(out.outputs[0], 3u * 1000u + 400u * 2u);
  EXPECT_GT(out.dispatch.links_patched, 0u);
  EXPECT_GT(out.dispatch.block_chains, 0u);
  EXPECT_GT(out.dispatch.traces_formed, 0u);
  EXPECT_GT(out.dispatch.trace_runs, 0u);
  EXPECT_EQ(out.dispatch.trace_len.Count(), out.dispatch.traces_formed);

  // And with chaining off the same run reports none of it.
  RunConfig off = cfg;
  off.chain = false;
  const RunOutcome out2 = RunImage(img, RuntimeKind::kBaseline, off);
  EXPECT_EQ(out2.outputs, out.outputs);
  EXPECT_EQ(out2.dispatch.block_chains, 0u);
  EXPECT_EQ(out2.dispatch.links_patched, 0u);
  EXPECT_EQ(out2.dispatch.traces_formed, 0u);
}

// The instruction limit must halt at the exact instruction even when it
// lands inside a chained block sequence or a baked multi-segment trace.
TEST(VmChaining, InstructionLimitMidChainAndMidTrace) {
  const BinaryImage img = BuildHotLoop(400);
  // Total instruction count from the reference stepper, then limits probing
  // the cold region, the chained-but-untraced region, deep mid-trace
  // territory, and every offset within one loop iteration (7 insns/iter).
  RunConfig probe;
  probe.engine = VmEngine::kStep;
  const RunOutcome ref = RunImage(img, RuntimeKind::kBaseline, probe);
  const uint64_t total = ref.result.instructions;
  ASSERT_GT(total, 1000u);
  std::vector<uint64_t> limits = {1, 2, 50, 200, 450, 451, total / 2, total - 1, total};
  for (uint64_t off = 0; off < 7; ++off) {
    limits.push_back(total / 2 + 100 + off);
  }
  for (const uint64_t limit : limits) {
    RunConfig cfg;
    cfg.instruction_limit = limit;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("hot-loop limit=%llu",
                                 static_cast<unsigned long long>(limit)));
  }
}

// A mem-error trap firing on the last iterations of a hot loop lands after
// chains and traces are formed; under kHarden the abort must stop at the
// identical instruction with the identical report, under kLog execution
// continues through the trace side-exit — in every mode.
TEST(VmChaining, MemErrorAbortMidChainAndMidTrace) {
  constexpr uint64_t kIters = 400;
  ProgramBuilder pb;
  Assembler& a = pb.text();
  a.MovRI(Reg::kR15, 0);
  a.MovRI(Reg::kR8, kIters);
  auto loop = a.NewLabel();
  auto skip = a.NewLabel();
  a.Bind(loop);
  a.CmpI(Reg::kR8, 2);
  a.Jcc(Cond::kUgt, skip);  // the hot path; falls through on iterations 2 and 1
  a.Trap(TrapCode::kMemError, PackErrorArg(9, ErrorKind::kBounds));
  a.Bind(skip);
  a.AddI(Reg::kR15, 2);
  a.SubI(Reg::kR8, 1);
  a.CmpI(Reg::kR8, 0);
  a.Jcc(Cond::kNe, loop);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  for (const Policy policy : {Policy::kHarden, Policy::kLog}) {
    RunConfig cfg;
    cfg.policy = policy;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("hot-loop trap policy=%d", static_cast<int>(policy)));
    // The trap really fired after the loop went hot.
    const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, cfg);
    ASSERT_FALSE(out.errors.empty());
    EXPECT_GT(out.dispatch.block_chains, 0u);
  }
}

// The code cache is keyed by entry address: two hot call targets 4096 bytes
// apart share their low address bits, yet both stay resident at the
// default size, so nothing is evicted. At a capacity of two blocks every
// new block flushes the cache whole — links, traces and all — and the run
// still computes the same result with the same counts.
TEST(VmChaining, CollisionEvictionInvalidatesChainLinks) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  auto f1 = a.NewLabel();
  auto f2 = a.NewLabel();
  auto main_l = a.NewLabel();
  a.Jmp(main_l);
  const uint64_t f1_addr = a.Here();
  a.Bind(f1);
  a.AddI(Reg::kR15, 1);
  a.Ret();
  while (a.Here() < f1_addr + 4096) {
    a.Nop();
  }
  ASSERT_EQ(a.Here(), f1_addr + 4096);
  a.Bind(f2);
  a.AddI(Reg::kR15, 3);
  a.Ret();
  a.Bind(main_l);
  a.MovRI(Reg::kR15, 0);
  a.MovRI(Reg::kR8, 500);
  auto loop = a.NewLabel();
  a.Bind(loop);
  a.Call(f1);
  a.Call(f2);
  a.SubI(Reg::kR8, 1);
  a.CmpI(Reg::kR8, 0);
  a.Jcc(Cond::kNe, loop);
  a.MovRR(Reg::kRdi, Reg::kR15);
  a.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  ExpectEnginesAgree(img, RuntimeKind::kBaseline, RunConfig{}, /*observe=*/false,
                     "chained collisions");
  RunConfig cfg;  // chained defaults
  const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, cfg);
  ASSERT_EQ(out.outputs.size(), 1u);
  EXPECT_EQ(out.outputs[0], 2000u);
  EXPECT_EQ(out.dispatch.code_cache_evictions, 0u);
  EXPECT_GT(out.dispatch.block_chains, 0u);
  RunConfig tiny = cfg;
  tiny.code_cache_size = 2;
  ExpectEnginesAgree(img, RuntimeKind::kBaseline, tiny, /*observe=*/false,
                     "chained collisions, capacity 2");
  const RunOutcome out2 = RunImage(img, RuntimeKind::kBaseline, tiny);
  ASSERT_EQ(out2.outputs.size(), 1u);
  EXPECT_EQ(out2.outputs[0], 2000u);
  EXPECT_EQ(out2.result.instructions, out.result.instructions);
  EXPECT_EQ(out2.result.cycles, out.result.cycles);
  EXPECT_GT(out2.dispatch.code_cache_evictions, 0u);
}

// A full cache flushes whole at the next new block. Sweeping the capacity
// and the iteration on which the loop first takes a cold side block makes
// that flush land while a link is pending (the side block is reached by an
// unlinked exit) and while a trace is being recorded (the side block comes
// up on the hot loop's recording lap): nothing may survive it.
TEST(VmChaining, FlushAtCapacityWhileLinkPendingAndRecording) {
  // `pad` cold blocks ahead of the loop shift when the cache fills up.
  auto build = [](int64_t side_at, int pad) {
    ProgramBuilder pb;
    Assembler& a = pb.text();
    auto f = a.NewLabel();
    auto main_l = a.NewLabel();
    a.Jmp(main_l);
    a.Bind(f);
    a.AddI(Reg::kR15, 1);
    a.Ret();
    a.Bind(main_l);
    a.MovRI(Reg::kR15, 0);
    for (int i = 0; i < pad; ++i) {
      auto next = a.NewLabel();
      a.Jmp(next);
      a.Bind(next);
    }
    a.MovRI(Reg::kR8, 120);
    auto loop = a.NewLabel();
    auto skip = a.NewLabel();
    a.Bind(loop);
    a.Call(f);
    a.SubI(Reg::kR8, 1);
    a.CmpI(Reg::kR8, side_at);
    a.Jcc(Cond::kNe, skip);
    a.AddI(Reg::kR15, 1000);  // the cold side block, taken once
    a.Bind(skip);
    a.CmpI(Reg::kR8, 0);
    a.Jcc(Cond::kNe, loop);
    a.MovRR(Reg::kRdi, Reg::kR15);
    a.HostCall(HostFn::kOutputU64);
    pb.EmitExit(0);
    return pb.Finish();
  };
  bool flushed_with_traces = false;
  for (int64_t side_at = 40; side_at <= 70; ++side_at) {
    for (const int pad : {0, 2, 4}) {
      const BinaryImage img = build(side_at, pad);
      for (const size_t capacity : {size_t{4}, size_t{8}}) {
        RunConfig cfg;
        cfg.code_cache_size = capacity;
        ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/true,
                           StrFormat("side at %lld, pad %d, capacity %zu",
                                     static_cast<long long>(side_at), pad, capacity));
        const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, cfg);
        ASSERT_EQ(out.outputs.size(), 1u);
        EXPECT_EQ(out.outputs[0], 1120u);
        flushed_with_traces |=
            out.dispatch.code_cache_evictions > 0 && out.dispatch.traces_formed > 0;
      }
    }
  }
  EXPECT_TRUE(flushed_with_traces);
}

// One differential leg per sink, each attached alone, on a hardened image
// whose hot loops run through trampolines: links and traces cross range
// boundaries there, and the visit bookkeeping on those edges must put every
// trampoline slice, per-site cycle count, sample and epoch delta exactly
// where the stepper does.
TEST(VmChaining, CrossRangeLinksAndTracesKeepEachSinkExact) {
  const BinaryImage base = BuildKrakenBenchmark(KrakenSuite().front());
  const InstrumentResult hardened = RedFatTool(RedFatOptions{}).Instrument(base).value();
  enum Sink { kTelemetry, kTrace, kSampler, kEpochs, kForensics };
  const std::pair<Sink, const char*> sinks[] = {
      {kTelemetry, "telemetry"}, {kTrace, "trace writer"}, {kSampler, "sampler"},
      {kEpochs, "epoch hook"},   {kForensics, "forensic ring"}};
  for (const auto& [which, name] : sinks) {
    const Leg leg = [&hardened, sink = which](const RunConfig& cfg, std::string* extra) {
      TelemetryRegistry telemetry;
      TraceWriter trace;
      SampleProfiler sampler(97);
      ForensicRing ring;
      TelemetrySnapshot prev;
      RunConfig c = cfg;
      switch (sink) {
        case kTelemetry: c.telemetry = &telemetry; break;
        case kTrace: c.trace = &trace; break;
        case kSampler: c.sampler = &sampler; break;
        case kEpochs:
          c.telemetry = &telemetry;
          c.metrics_epoch = 3001;
          c.on_epoch = [&] {
            const TelemetrySnapshot cur = telemetry.Snapshot();
            *extra += DeltaTelemetrySnapshot(cur, prev).ToJson() + "\n";
            prev = cur;
          };
          break;
        case kForensics: c.forensics = &ring; break;
      }
      const RunOutcome out = RunImage(hardened.image, RuntimeKind::kRedFat, c);
      if (c.telemetry != nullptr) {
        *extra += telemetry.Snapshot().ToJson() + "\n";
      }
      sampler.AppendTrace(trace);
      *extra += trace.ToJson() + "\n" + sampler.ToFolded();
      *extra += ForensicReportsToJson(out.forensic_reports, ring);
      return out;
    };
    RunConfig cfg;
    cfg.inputs = RefInputs(40);
    ExpectEnginesAgree(leg, cfg, /*observe=*/false, name);
    // The chained run really did stay in its fast path through trampolines,
    // samples and epochs included.
    std::string ignored;
    const RunOutcome out = leg(cfg, &ignored);
    const double chains = static_cast<double>(out.dispatch.block_chains);
    EXPECT_GE(chains / (chains + static_cast<double>(out.dispatch.chain_exits)), 0.9) << name;
    EXPECT_GT(out.dispatch.trace_runs, 0u) << name;
  }
}

// A function called from two sites: the trace headed at it bakes one
// return site after its `ret`, so entering it from the other call site
// fails that guard inside the lap. Every limit across two loop iterations
// must stop at the stepper's instruction with the stepper's state.
TEST(VmChaining, RetToTwoCallSitesDivergesInsideTrace) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  auto f = a.NewLabel();
  auto main_l = a.NewLabel();
  a.Jmp(main_l);
  a.Bind(f);
  a.AddI(Reg::kR15, 1);
  a.ImulI(Reg::kR15, 3);
  a.Ret();
  a.Bind(main_l);
  a.MovRI(Reg::kR15, 0);
  a.MovRI(Reg::kR8, 300);
  auto loop = a.NewLabel();
  a.Bind(loop);
  a.Call(f);
  a.AddI(Reg::kR15, 5);
  a.Call(f);
  a.SubI(Reg::kR8, 1);
  a.CmpI(Reg::kR8, 0);
  a.Jcc(Cond::kNe, loop);
  a.MovRR(Reg::kRdi, Reg::kR15);
  a.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  RunConfig bounded;  // a run that skips the guard must not loop forever
  bounded.instruction_limit = 1'000'000;
  ExpectEnginesAgree(img, RuntimeKind::kBaseline, bounded, /*observe=*/true,
                     "ret to two call sites");
  const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, bounded);
  EXPECT_EQ(out.result.reason, HaltReason::kExit);
  EXPECT_GT(out.dispatch.traces_formed, 0u);
  EXPECT_GT(out.dispatch.trace_runs, 0u);
  const uint64_t mid = out.result.instructions / 2;
  for (uint64_t limit = mid; limit < mid + 2 * 12; ++limit) {
    RunConfig cfg;
    cfg.instruction_limit = limit;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("ret guard, limit=%llu",
                                 static_cast<unsigned long long>(limit)));
  }
}

// An instruction limit or a sample that falls right after a taken branch
// inside a trace lap must leave rip at the branch target, not at the
// fall-through: the halted VM's rip and registers match the stepper's, the
// run resumes to the same result, and every sample carries the same pc.
TEST(VmChaining, LimitOrSampleOnTakenBranchInsideTrace) {
  const BinaryImage img = BuildHotLoop(400);
  RunConfig probe;
  probe.engine = VmEngine::kStep;
  const uint64_t total = RunImage(img, RuntimeKind::kBaseline, probe).result.instructions;
  auto run_to = [&img](VmEngine engine, uint64_t limit, SampleProfiler* sampler,
                       std::string* state) {
    Vm vm;
    GlibcLikeAllocator alloc;
    vm.set_allocator(&alloc);
    vm.set_engine(engine);
    vm.set_sampler(sampler);
    vm.LoadImage(img);
    vm.set_instruction_limit(limit);
    const RunResult halted = vm.Run();
    *state = StrFormat("%s rip=0x%llx", FormatResult(halted).c_str(),
                       static_cast<unsigned long long>(vm.cpu().rip));
    for (const uint64_t r : vm.cpu().regs) {
      *state += StrFormat(" %llx", static_cast<unsigned long long>(r));
    }
    vm.set_instruction_limit(~uint64_t{0});
    *state += " | " + FormatResult(vm.Run());
    for (const uint64_t o : vm.outputs()) {
      *state += StrFormat(" out=%llu", static_cast<unsigned long long>(o));
    }
    return vm.dispatch_stats();
  };
  bool in_trace = false;
  for (uint64_t limit = total / 2; limit < total / 2 + 14; ++limit) {
    std::string step;
    std::string block;
    run_to(VmEngine::kStep, limit, nullptr, &step);
    const Vm::DispatchStats d = run_to(VmEngine::kBlock, limit, nullptr, &block);
    EXPECT_EQ(step, block) << "limit=" << limit;
    in_trace |= d.trace_runs > 0;
  }
  EXPECT_TRUE(in_trace);
  for (uint64_t period = 89; period <= 103; ++period) {
    std::string step;
    std::string block;
    SampleProfiler step_samples(period);
    SampleProfiler block_samples(period);
    run_to(VmEngine::kStep, total / 2, &step_samples, &step);
    run_to(VmEngine::kBlock, total / 2, &block_samples, &block);
    EXPECT_EQ(step, block) << "period=" << period;
    TraceWriter step_trace;
    TraceWriter block_trace;
    step_samples.AppendTrace(step_trace);
    block_samples.AppendTrace(block_trace);
    EXPECT_EQ(step_trace.ToJson(), block_trace.ToJson()) << "period=" << period;
  }
}

// Records every malloc/free the VM reports, with the instruction and cycle
// counts it passes: the fast engine must have its counters current at each.
class HeapLog : public HeapObserver {
 public:
  void OnAlloc(uint64_t ptr, uint64_t size, uint64_t pc, uint64_t instruction,
               uint64_t cycles, uint64_t /*epoch*/) override {
    events.push_back(StrFormat("alloc %llx %llu pc=%llx insn=%llu cycles=%llu",
                               static_cast<unsigned long long>(ptr),
                               static_cast<unsigned long long>(size),
                               static_cast<unsigned long long>(pc),
                               static_cast<unsigned long long>(instruction),
                               static_cast<unsigned long long>(cycles)));
    alloc_insns.push_back(instruction);
  }
  void OnFree(uint64_t ptr, uint64_t pc, uint64_t instruction, uint64_t cycles,
              uint64_t /*epoch*/) override {
    events.push_back(StrFormat("free %llx pc=%llx insn=%llu cycles=%llu",
                               static_cast<unsigned long long>(ptr),
                               static_cast<unsigned long long>(pc),
                               static_cast<unsigned long long>(instruction),
                               static_cast<unsigned long long>(cycles)));
  }
  bool WasFreed(uint64_t /*ptr*/) const override { return false; }
  bool DistanceTo(uint64_t /*addr*/, uint64_t* /*distance*/) const override { return false; }

  std::vector<std::string> events;
  std::vector<uint64_t> alloc_insns;  // instruction count at each malloc
};

// Stop anywhere, same machine: a hardened malloc/store/load/free loop,
// halted by the instruction limit at every instruction of a three-iteration
// window deep in its traced steady state, leaves the fast engine's
// RunResult and CPU state (the 16 GPRs, rip and the four flags) equal to
// the stepper's. The window covers whole blocks, trampolines, the fused
// cmp+jcc that closes the loop, two hostcalls per iteration and several
// trace laps. A second leg records every OnAlloc/OnFree: each must see the
// same instruction and cycle counts under both engines.
TEST(VmChaining, StopAnywhereLeavesTheSameMachine) {
  constexpr int32_t kIters = 200;
  ProgramBuilder pb;
  {
    Assembler& a = pb.text();
    a.MovRI(Reg::kR15, 0);
    a.MovRI(Reg::kRbx, 0);
    auto loop = a.NewLabel();
    a.Bind(loop);
    a.MovRR(Reg::kRdi, Reg::kRbx);
    a.AndI(Reg::kRdi, 7);
    a.AddI(Reg::kRdi, 24);
    a.HostCall(HostFn::kMalloc);
    a.MovRR(Reg::kR12, Reg::kRax);
    a.Store(Reg::kRbx, MemAt(Reg::kR12, 0));
    a.Store(Reg::kRdi, MemAt(Reg::kR12, 16));
    a.Load(Reg::kR13, MemAt(Reg::kR12, 16));
    a.Add(Reg::kR15, Reg::kR13);
    a.MovRR(Reg::kRdi, Reg::kR12);
    a.HostCall(HostFn::kFree);
    a.AddI(Reg::kRbx, 1);
    a.CmpI(Reg::kRbx, kIters);
    a.Jcc(Cond::kNe, loop);
    a.MovRR(Reg::kRdi, Reg::kR15);
    a.HostCall(HostFn::kOutputU64);
    pb.EmitExit(0);
  }
  const InstrumentResult ir = RedFatTool(RedFatOptions{}).Instrument(pb.Finish()).value();
  ASSERT_FALSE(ir.sites.empty());

  auto run_to = [&ir](VmEngine engine, uint64_t limit, HeapLog* heap, std::string* state) {
    Vm vm;
    RedFatAllocator alloc;
    WriteLowFatTables(&vm.memory());
    vm.set_allocator(&alloc);
    vm.set_engine(engine);
    vm.set_heap_observer(heap);
    vm.LoadImage(ir.image);
    vm.set_instruction_limit(limit);
    const CpuState& cpu = vm.cpu();
    *state = FormatResult(vm.Run());
    for (const uint64_t r : cpu.regs) {
      *state += StrFormat(" %llx", static_cast<unsigned long long>(r));
    }
    *state += StrFormat(" rip=%llx zf=%d sf=%d cf=%d of=%d",
                        static_cast<unsigned long long>(cpu.rip), cpu.flags.zf,
                        cpu.flags.sf, cpu.flags.cf, cpu.flags.of);
    return vm.dispatch_stats().trace_runs;
  };

  // The window: three iterations, from just before the 101st malloc through
  // the 104th, well past trace formation.
  HeapLog full;
  std::string state;
  run_to(VmEngine::kStep, ~uint64_t{0}, &full, &state);
  ASSERT_EQ(full.alloc_insns.size(), static_cast<size_t>(kIters)) << state;
  const uint64_t first = full.alloc_insns[100] - 1;
  const uint64_t last = full.alloc_insns[103];
  EXPECT_GE(run_to(VmEngine::kBlock, last, nullptr, &state) -
                run_to(VmEngine::kBlock, first, nullptr, &state),
            3u)
      << "the window must span several trace laps";

  for (uint64_t limit = first; limit <= last; ++limit) {
    std::string step;
    std::string block;
    run_to(VmEngine::kStep, limit, nullptr, &step);
    run_to(VmEngine::kBlock, limit, nullptr, &block);
    ASSERT_EQ(step, block) << "limit=" << limit;
    HeapLog step_heap;
    HeapLog block_heap;
    run_to(VmEngine::kStep, limit, &step_heap, &step);
    run_to(VmEngine::kBlock, limit, &block_heap, &block);
    ASSERT_EQ(step, block) << "limit=" << limit << " (heap observer)";
    ASSERT_EQ(step_heap.events, block_heap.events) << "limit=" << limit;
  }
}

// LoadImage while chains and traces are live: the second image overlays the
// same addresses, so any surviving link or trace would execute the first
// image's arithmetic. Runs hot loops so both images actually form traces.
TEST(VmChaining, LoadImageInvalidatesChainsAndTraces) {
  auto build = [](int64_t addend, uint64_t iters) {
    ProgramBuilder pb;
    Assembler& a = pb.text();
    a.MovRI(Reg::kR15, 0);
    a.MovRI(Reg::kR8, static_cast<int64_t>(iters));
    auto loop = a.NewLabel();
    a.Bind(loop);
    a.AddI(Reg::kR15, addend);
    a.SubI(Reg::kR8, 1);
    a.CmpI(Reg::kR8, 0);
    a.Jcc(Cond::kNe, loop);
    a.MovRR(Reg::kRdi, Reg::kR15);
    a.HostCall(HostFn::kOutputU64);
    pb.EmitExit(0);
    return pb.Finish();
  };
  const BinaryImage first = build(7, 300);
  const BinaryImage second = build(11, 200);
  Vm vm;
  GlibcLikeAllocator alloc;
  vm.set_allocator(&alloc);
  vm.LoadImage(first);
  const RunResult r1 = vm.Run();
  ASSERT_EQ(r1.reason, HaltReason::kExit);
  EXPECT_GT(vm.dispatch_stats().block_chains, 0u);
  vm.LoadImage(second);
  const RunResult r2 = vm.Run();
  ASSERT_EQ(r2.reason, HaltReason::kExit);
  ASSERT_EQ(vm.outputs().size(), 2u);
  EXPECT_EQ(vm.outputs()[0], 7u * 300u);
  EXPECT_EQ(vm.outputs()[1], 11u * 200u);
}

// An observer with a plan keeps chaining and traces on: the fast engine
// adds the cached charges and never calls OnInstruction. One with no plan
// is called before every instruction, chained or not. Both reproduce the
// stepper, which calls OnInstruction (Plan, then Check) every time.
TEST(VmChaining, ObservedRunsKeepChainsAndTraces) {
  class PlannedCounter : public ExecObserver {
   public:
    uint64_t OnInstruction(Vm& vm, uint64_t addr, const Instruction& insn) override {
      ++calls;
      return ExecObserver::OnInstruction(vm, addr, insn);
    }
    bool Plan(const Vm&, uint64_t, const Instruction& insn,
              ObserverPlan* plan) const override {
      plan->cycles = IsControlFlow(insn.op) ? 5 : 2;
      return true;
    }
    uint64_t calls = 0;
  };
  const BinaryImage img = BuildHotLoop(400);
  RunFingerprint ref;
  for (const bool forward : {false, true}) {
    for (const VmEngine engine : {VmEngine::kStep, VmEngine::kBlock}) {
      PlannedCounter planned;
      ForwardingObserver forwarder(&planned);
      RunConfig cfg;  // chain + specialize left at production defaults
      cfg.engine = engine;
      cfg.observer = forward ? static_cast<ExecObserver*>(&forwarder) : &planned;
      const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, cfg);
      const std::string tag = StrFormat("forward=%d engine=%d", forward ? 1 : 0,
                                        static_cast<int>(engine));
      if (engine == VmEngine::kBlock) {
        EXPECT_GT(out.dispatch.block_chains, 0u) << tag;
        EXPECT_GT(out.dispatch.traces_formed, 0u) << tag;
        EXPECT_GT(out.dispatch.trace_runs, 0u) << tag;
      }
      const bool per_instruction = forward || engine == VmEngine::kStep;
      EXPECT_EQ(planned.calls, per_instruction ? out.result.instructions : 0u) << tag;
      EXPECT_EQ(forwarder.calls, forward ? out.result.instructions : 0u) << tag;
      const RunFingerprint fp = Fingerprint(out, "", "");
      if (!forward && engine == VmEngine::kStep) {
        ref = fp;
        continue;
      }
      EXPECT_EQ(ref.result, fp.result) << tag;
      EXPECT_EQ(ref.outputs, fp.outputs) << tag;
    }
  }
  // The charges really are in the cycle count.
  const RunOutcome bare = RunImage(img, RuntimeKind::kBaseline, RunConfig{});
  EXPECT_NE(ref.result, Fingerprint(bare, "", "").result);
}

// Blocks and traces cache the observer's plans, so attaching an observer
// mid-run must drop the code built without one: a run that goes hot
// unobserved, then resumes observed, charges exactly what the stepper does.
TEST(VmChaining, SetObserverDropsCachedPlans) {
  const BinaryImage img = BuildHotLoop(400);
  uint64_t cycles[2] = {0, 0};
  const VmEngine engines[2] = {VmEngine::kStep, VmEngine::kBlock};
  for (int i = 0; i < 2; ++i) {
    Vm vm;
    GlibcLikeAllocator alloc;
    ShadowCheckObserver observer;
    vm.set_allocator(&alloc);
    vm.set_engine(engines[i]);
    vm.LoadImage(img);
    vm.set_instruction_limit(1500);
    ASSERT_EQ(vm.Run().reason, HaltReason::kInstrLimit);
    vm.set_observer(&observer);
    vm.set_instruction_limit(~uint64_t{0});
    const RunResult r = vm.Run();
    ASSERT_EQ(r.reason, HaltReason::kExit);
    cycles[i] = r.cycles;
    if (engines[i] == VmEngine::kBlock) {
      EXPECT_GT(vm.dispatch_stats().traces_formed, 0u);
    }
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

// The cache-size knob: rejects zero and non-powers-of-two via REDFAT_CHECK
// (covered by rfrun's exit-2 validation at the CLI layer); accepted sizes
// keep bit-identity — checked here across a drastic down-size.
TEST(VmChaining, CodeCacheSizeKnobKeepsIdentity) {
  const BinaryImage img = BuildHotLoop(300);
  RunConfig ref_cfg;
  ref_cfg.engine = VmEngine::kStep;
  const RunOutcome ref = RunImage(img, RuntimeKind::kBaseline, ref_cfg);
  for (const size_t entries : {size_t{1}, size_t{8}, size_t{131072}}) {
    RunConfig cfg;
    cfg.code_cache_size = entries;
    const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, cfg);
    EXPECT_EQ(out.result.instructions, ref.result.instructions) << entries;
    EXPECT_EQ(out.result.cycles, ref.result.cycles) << entries;
    EXPECT_EQ(out.outputs, ref.outputs) << entries;
  }
}

}  // namespace
}  // namespace redfat
