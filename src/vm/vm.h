// The rvm virtual machine: executes rfi code with deterministic cycle
// accounting.
//
// Cycles are the project's performance currency: every slowdown factor in
// the reproduced tables is a ratio of cycle counts. The cycle model is a
// single fixed cost table (CycleModel) applied uniformly to baseline and
// instrumented runs, so overheads are *emergent* from the extra instructions
// the instrumentation executes, not assumed.
#ifndef REDFAT_SRC_VM_VM_H_
#define REDFAT_SRC_VM_VM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/bin/image.h"
#include "src/isa/abi.h"
#include "src/isa/isa.h"
#include "src/support/rng.h"
#include "src/support/telemetry.h"
#include "src/vm/allocator.h"
#include "src/vm/memory.h"

namespace redfat {

class HistogramCell;
class SampleProfiler;
class TelemetryRegistry;
class TelemetryShard;
class TraceWriter;

struct Flags {
  bool zf = false;
  bool sf = false;
  bool cf = false;
  bool of = false;

  uint64_t Pack() const {
    return (zf ? 1u : 0u) | (sf ? 2u : 0u) | (cf ? 4u : 0u) | (of ? 8u : 0u);
  }
  void Unpack(uint64_t v) {
    zf = v & 1;
    sf = v & 2;
    cf = v & 4;
    of = v & 8;
  }
};

struct CpuState {
  uint64_t regs[kNumGprs] = {};
  uint64_t rip = 0;
  Flags flags;

  uint64_t Get(Reg r) const { return regs[RegIndex(r)]; }
  void Set(Reg r, uint64_t v) { regs[RegIndex(r)] = v; }
};

// The address a memory operand resolves to. `next_rip` anchors rip-relative
// operands (address of the following instruction, as on x86_64).
inline uint64_t ComputeEffectiveAddress(const CpuState& cpu, const MemOperand& mem,
                                        uint64_t next_rip) {
  uint64_t addr = static_cast<uint64_t>(static_cast<int64_t>(mem.disp));
  if (mem.base == Reg::kRip) {
    addr += next_rip;
  } else if (mem.has_base()) {
    addr += cpu.Get(mem.base);
  }
  if (mem.has_index()) {
    addr += cpu.Get(mem.index) << mem.scale_log2;
  }
  return addr;
}

// Deterministic per-operation cycle costs. One table for every run.
struct CycleModel {
  uint64_t basic = 1;         // ALU / mov / lea / nop
  uint64_t mem = 3;           // explicit load/store
  uint64_t mul = 3;           // imul / mulh
  uint64_t branch = 1;        // jmp / jcc (taken or not)
  uint64_t call_ret = 2;      // call / ret / indirect jumps
  uint64_t push_pop = 2;      // push/pop/pushf/popf
  uint64_t hostcall_base = 30;  // fixed cost of crossing the libc boundary
  uint64_t membyte_per8 = 1;  // memset/memcpy marginal cost per 8 bytes
};

// How Vm::Run dispatches guest instructions.
//
//   * kStep  — the reference interpreter: per-instruction fetch through an
//              address-keyed decode cache (an unordered_map lookup each
//              instruction).
//   * kBlock — the superblock engine: straight-line decoded runs (terminated
//              at any control transfer, hostcall or trap) held in a code
//              cache keyed by entry address, chained block -> block and
//              through trampolines, with hot chains baked into traces that
//              run a whole lap per ExecSpecs call. The steady state executes
//              Exec[] arrays with zero map lookups, and trampoline-range
//              classification happens once per decoded block.
//
// The two engines are bit-identical by contract: instructions, cycles,
// explicit reads/writes, telemetry counters, trace slices, mem-error reports
// and prof counts all match exactly for any program (asserted by
// tests/vm_engine_test.cc). kStep stays selectable for differential testing.
enum class VmEngine { kStep, kBlock };

enum class HaltReason {
  kExit,          // guest called exit()
  kHlt,           // executed hlt
  kFault,         // decode fault / ud2 / rip into unmapped memory
  kInstrLimit,    // exceeded the configured instruction budget
  kMemErrorAbort, // instrumentation reported an error under Policy::kHarden
  kAssertFail,    // guest self-check failed (workload bug, not a detection)
};

// What to do when instrumentation reports a memory error (paper §4.2: the
// error() function aborts for hardening or logs for bug finding).
enum class Policy { kHarden, kLog };

struct MemErrorReport {
  uint32_t site = 0;
  ErrorKind kind = ErrorKind::kBounds;
  uint64_t rip = 0;
  uint64_t instruction_index = 0;
  // Faulting effective address, when the reporter could compute one. Trap
  // payloads carry only (site, kind), so trap-raised reports have no address;
  // DBI observers and the VM's own double-free interception do.
  uint64_t addr = 0;
  bool has_addr = false;
};

struct RunResult {
  HaltReason reason = HaltReason::kFault;
  uint64_t exit_status = 0;
  std::string fault_message;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  // Explicit memory-operand accesses (load/store/storei) — the population
  // RedFat instruments. Stack push/pop/call traffic is excluded, as in the
  // paper's notion of "memory operands".
  uint64_t explicit_reads = 0;
  uint64_t explicit_writes = 0;
};

class Vm;

// An observer's decode-time answer for one instruction (ExecObserver::Plan).
struct ObserverPlan {
  uint64_t cycles = 0;  // fixed charge, added after the check
  bool check = false;   // call ExecObserver::Check before the instruction
};

// Hook for dynamic-binary-instrumentation style baselines (Memcheck, the
// debug tier's shadow checker), in two halves:
//   * Plan, at decode time: the instruction's fixed cycle charge and
//     whether its access needs a check. The fast engine asks once per
//     decoded instruction, caches the answer in its blocks and traces, and
//     then only adds the charge and calls Check where the plan asks for
//     one, with chaining and traces left on.
//   * OnInstruction, before each instruction: returns the cycles to charge.
//     The reference stepper calls only this. The default is Plan, then
//     Check, so one classification serves both engines.
// An observer with no plan (Plan returns false, the default) gets
// OnInstruction before every instruction under either engine.
class ExecObserver {
 public:
  virtual ~ExecObserver() = default;
  virtual uint64_t OnInstruction(Vm& vm, uint64_t addr, const Instruction& insn);
  // Fills *plan for `insn` decoded at `addr` and returns true, or returns
  // false when there is no plan. A plan may depend only on the instruction,
  // its address and the loaded images, never on run-time state.
  virtual bool Plan(const Vm& vm, uint64_t addr, const Instruction& insn,
                    ObserverPlan* plan) const;
  // Checks the access of an instruction whose plan asked for it, with the
  // CPU state from before the instruction executes. Reports go through
  // Vm::ReportMemError.
  virtual void Check(Vm& vm, uint64_t addr, const Instruction& insn);
};

// Hook for allocation-provenance tracking (implemented by ForensicRing in
// src/heap/forensics.h): the VM reports every guest malloc/free when an
// observer is attached, and consults it to classify double frees and to
// measure how far a faulting address landed from tracked heap objects.
// Attaching one never changes guest-visible behaviour or modeled cycles on
// error-free runs.
class HeapObserver {
 public:
  virtual ~HeapObserver() = default;
  virtual void OnAlloc(uint64_t ptr, uint64_t size, uint64_t pc,
                       uint64_t instruction, uint64_t cycles, uint64_t epoch) = 0;
  virtual void OnFree(uint64_t ptr, uint64_t pc, uint64_t instruction,
                      uint64_t cycles, uint64_t epoch) = 0;
  // True when `ptr` is the exact base of an object that was freed and not
  // since reallocated — the double-free witness.
  virtual bool WasFreed(uint64_t ptr) const = 0;
  // Distance in bytes from `addr` to the nearest tracked payload (0 = inside
  // one). Returns false when nothing is tracked yet.
  virtual bool DistanceTo(uint64_t addr, uint64_t* distance) const = 0;
};

class Vm {
 public:
  explicit Vm(CycleModel model = CycleModel{}) : model_(model) {}

  // Maps all image sections and the stack; sets rip/rsp. Does not clear
  // profiling/error state (call ResetRunState for that).
  void LoadImage(const BinaryImage& image);

  void set_allocator(GuestAllocator* a) { allocator_ = a; }
  // Decoded blocks and traces cache the observer's plans, so this drops them.
  void set_observer(ExecObserver* o);
  void set_policy(Policy p) { policy_ = p; }
  void set_inputs(std::vector<uint64_t> inputs) {
    inputs_ = std::move(inputs);
    input_pos_ = 0;
  }
  void set_rng_seed(uint64_t seed) { rng_ = Rng(seed); }
  void set_instruction_limit(uint64_t limit) { instruction_limit_ = limit; }
  void set_engine(VmEngine e) { engine_ = e; }
  VmEngine engine() const { return engine_; }

  // --- block-engine dispatch knobs -----------------------------------------
  // Direct superblock chaining (default on): a block's exit patches a cached
  // successor pointer, so steady-state control transfers block -> block
  // without a dispatcher round-trip. Guest-visible results are bit-identical
  // with chaining on or off, with or without an observer attached.
  void set_chaining(bool on) { chain_ = on; }
  bool chaining() const { return chain_; }
  // Specialized opcode handlers (default on): decode-time classification of
  // the hot opcode+operand shapes into a flat Spec form executed by a tight
  // dedicated loop instead of the generic decode-result interpreter.
  void set_specialize(bool on) { spec_ = on; }
  bool specialize() const { return spec_; }
  // Code-cache capacity in superblocks; must be a power of two. A cache that
  // is full when one more block is needed is flushed whole (blocks, chain
  // links, traces), so host memory stays bounded. Setting it drops the cache.
  void set_code_cache_size(size_t entries);
  size_t code_cache_size() const { return code_cache_size_; }

  // Host-side dispatch-layer statistics. These describe the engine, not the
  // guest: they are deliberately NOT part of the bit-identity contract (the
  // stepper has no chains to count) and are never written into an attached
  // TelemetryRegistry. rfrun --report surfaces them as vm.* counters.
  struct DispatchStats {
    uint64_t blocks_built = 0;        // superblock decodes (cold path)
    uint64_t code_cache_evictions = 0;  // blocks dropped by capacity flushes
    uint64_t block_chains = 0;        // block->block transfers via chain link
    uint64_t chain_exits = 0;         // chained execution re-entered dispatcher
    uint64_t links_patched = 0;       // successor links installed
    uint64_t traces_formed = 0;       // hot chains promoted to traces
    uint64_t trace_runs = 0;          // whole-trace executions
    uint64_t tlb_hits = 0;            // memory-TLB probes, all access paths
    uint64_t tlb_misses = 0;
    HistogramData trace_len;          // blocks per formed trace
  };
  DispatchStats dispatch_stats() const {
    DispatchStats d = dispatch_;
    d.tlb_hits = memory_.tlb_hits();
    d.tlb_misses = memory_.tlb_misses();
    return d;
  }

  // Fires `hook` every `every` executed guest instructions (at the exact
  // instruction boundary, identically under both engines), e.g. to cut
  // periodic telemetry snapshots. The hook runs on the VM thread between
  // instructions; it must not mutate guest state and charges no cycles.
  // every == 0 disables.
  void set_epoch_hook(uint64_t every, std::function<void()> hook) {
    epoch_every_ = every;
    epoch_hook_ = std::move(hook);
    epoch_next_ = instructions_ + every;
  }

  // Optional observability sinks; null (the default) disables the
  // corresponding tracking entirely. Neither affects modeled cycles — an
  // instrumented run executes the exact same guest work with or without
  // telemetry attached.
  void set_telemetry(TelemetryRegistry* t);
  void set_trace(TraceWriter* t) { trace_ = t; }
  // Interval sampling: one TakeSample call every sampler->period() executed
  // guest instructions, at the exact boundary under either engine. Charges
  // no cycles; null detaches.
  void set_sampler(SampleProfiler* s);
  // Allocation provenance sink + double-free detector; null detaches.
  void set_heap_observer(HeapObserver* o) { heap_obs_ = o; }
  // Optional keyed-site-id -> original-instruction-address map (see
  // telemetry.h ImageSiteKey). When set, trampoline/mem_error trace events
  // carry a `site_addr` arg linking the slice back to the disassembly.
  void set_site_addrs(const std::unordered_map<uint32_t, uint64_t>* m) {
    site_addrs_ = m;
  }

  RunResult Run();

  // --- state inspection ----------------------------------------------------
  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }
  CpuState& cpu() { return cpu_; }
  const CpuState& cpu() const { return cpu_; }
  const std::vector<uint64_t>& outputs() const { return outputs_; }
  const std::vector<MemErrorReport>& mem_errors() const { return mem_errors_; }
  const std::unordered_map<uint32_t, uint64_t>& counters() const { return counters_; }
  // Profiling events per site: {passes, fails}.
  struct ProfCounts {
    uint64_t passes = 0;
    uint64_t fails = 0;
  };
  const std::unordered_map<uint32_t, ProfCounts>& prof_counts() const { return prof_counts_; }
  const CycleModel& cycle_model() const { return model_; }
  // High-water mark of tracked live heap bytes (0 unless a heap histogram
  // sink or HeapObserver was attached for the whole run).
  uint64_t live_bytes_peak() const { return live_bytes_peak_; }

  // Reports a memory error on behalf of instrumentation (used both by kTrap
  // handling and by DBI observers). Returns true if the run must abort.
  // The three-argument form attaches the faulting effective address when the
  // caller could compute it (DBI observers can; trap payloads cannot).
  bool ReportMemError(uint32_t site, ErrorKind kind);
  bool ReportMemError(uint32_t site, ErrorKind kind, uint64_t addr);

  // Charged by observers/allocators for modeled work.
  void AddCycles(uint64_t c) { cycles_ += c; }

  // Is `addr` inside any loaded image's trampoline/inline-check section?
  // Public so DBI observers can skip instrumentation code (whose metadata
  // loads legitimately touch redzone-state memory).
  bool InTrampoline(uint64_t addr) const;

 private:
  struct TrampRange;

  // Decode-time specialization: the hottest opcode+operand shapes are
  // classified once per superblock build into a flat form that a dedicated
  // executor runs without re-inspecting the Instruction — register numbers
  // pre-indexed, rip-relative displacements folded to absolute (the anchor
  // next_rip is static per decoded instruction), direct branch targets
  // precomputed. kSGeneric routes everything else (hostcalls, traps, flag
  // stack ops, faulting opcodes) through the reference ExecuteOne, which is
  // also the bit-identity oracle for every specialized handler.
  enum SpecOp : uint8_t {
    kSGeneric = 0,
    kSNop,
    kSMovRI, kSMovRR, kSLea,
    kSLoad, kSStoreR, kSStoreI,
    kSAddRR, kSAddRI, kSSubRR, kSSubRI,
    kSAndRR, kSAndRI, kSOrRR, kSOrRI, kSXorRR, kSXorRI,
    kSShlRI, kSShrRI, kSSarRI,
    kSImulRR, kSImulRI, kSMulhRR,
    kSCmpRR, kSCmpRI, kSTestRR,
    kSCount,
    // cmp/test+jcc macro-op fusion: the compare executes its own semantics
    // AND the following Jcc in one step (two guest instructions). Only ever
    // the last two entries of a block (Jcc terminates it); when the
    // instruction budget can't cover both, the compare executes unfused.
    kSCmpRRJcc, kSCmpRIJcc, kSTestRRJcc,
    // Block terminators with precomputed (kSJmp/kSJcc/kSCall) targets.
    kSJmp, kSJcc, kSJmpR, kSCall, kSCallR, kSRet,
    kSPush, kSPop,
    kNumSpecOps,
  };
  struct Spec {
    uint8_t op = kSGeneric;  // SpecOp
    uint8_t r0 = 0;          // pre-indexed GPR operands
    uint8_t r1 = 0;
    uint8_t base = 0xff;     // memory base GPR, 0xff = none/folded
    uint8_t idx = 0xff;      // memory index GPR, 0xff = none
    uint8_t scale = 0;       // index scale_log2
    uint8_t size = 8;        // memory access size in bytes
    uint8_t cond = 0;        // Cond for kSJcc and the fused forms
    int64_t imm = 0;         // sign-extended immediate / imm64 / shift count
    int64_t disp = 0;        // displacement; absolute when rip-rel was folded
    uint64_t target = 0;     // precomputed taken target (direct transfers)
    uint64_t next = 0;       // static fall-through address (insn end)
  };

  // What the block engine does for the attached observer before an Exec.
  enum ObsOp : uint8_t {
    kObsCharge = 0,  // add obs_cycles only (0 when no observer is attached)
    kObsCheck,       // planned: Check, then add obs_cycles
    kObsCall,        // no plan: add OnInstruction's cycles
  };

  struct Exec {
    Instruction insn;
    uint8_t length = 0;
    uint8_t obs = kObsCharge;  // ObsOp, from the observer's plan
    uint32_t obs_cycles = 0;   // the plan's fixed charge
    Spec spec;
  };
  // The plan fields fill alignment padding: the hot loops stream Exec
  // arrays, and a larger Exec measurably slows the unobserved engine.
  static_assert(sizeof(Exec) == 72, "keep Exec at 72 bytes");

  // A superblock: decoded straight-line instruction run starting at `entry`.
  // Blocks end at the first control transfer / hostcall / trap / hlt (that
  // terminator is the block's last instruction), at a decode failure (the
  // undecodable instruction is NOT part of the block — re-dispatching at its
  // address reproduces the step engine's fault), at kMaxBlockInsns, and at
  // any trampoline/inline-region boundary, so the one range classified at
  // decode time holds for every instruction in the block.
  //
  // A block's execs sit in exec_pool_, back to back with the other cached
  // blocks'. Blocks live at stable addresses until the cache is flushed
  // whole, so succ[] can be raw pointers (direct-linking a la DynamoRIO):
  // [0] = the fall-through/untaken successor, [1] = the taken/indirect-
  // target successor (a monomorphic inline cache for indirect transfers). A
  // link is followed only after validating `succ->entry` against the actual
  // next rip. Links cross trampoline ranges; following one that changes
  // range runs the visit bookkeeping (EnterRange) when a sink is attached.
  struct Block {
    uint64_t entry = 0;
    const TrampRange* range = nullptr;  // classification at entry (null = user code)
    uint64_t fall_rip = 0;          // address one past the last instruction
    Block* succ[2] = {nullptr, nullptr};
    uint32_t first = 0;             // execs: exec_pool_[first, first + count)
    uint32_t count = 0;
    uint32_t hits = 0;              // dispatcher entries; drives trace formation
    int32_t trace = -1;             // index into traces_ once promoted
  };
  // One code-cache slot: the entry tag next to the block, so a probe that
  // hits reads one slot. Empty slots have a null block.
  struct CacheSlot {
    uint64_t entry = 0;
    Block* block = nullptr;
  };
  static constexpr size_t kDefaultCodeCacheSize = 4096;  // blocks
  static constexpr size_t kMinCacheSlots = 16;
  static constexpr size_t kMaxBlockInsns = 128;

  // A trace: the concatenation of a hot chain's blocks (segments) into one
  // straight-line Exec run, which may pass through trampolines. A lap runs
  // in one ExecSpecs call: the control transfer that ends a segment checks
  // the next segment's entry address inline (the guard) and side-exits to
  // the dispatcher with rip intact on a mismatch. With a sink attached the
  // lap also splits where the trampoline range changes, so the visit
  // bookkeeping runs at the same instruction as under the stepper.
  struct Trace {
    uint64_t entry = 0;
    std::vector<Exec> execs;
    uint32_t segments = 0;
    // Maximal same-range runs: one past each run's last exec, and its range.
    std::vector<uint32_t> range_end;
    std::vector<const TrampRange*> range_of;
    // Indices of the execs that end a segment with a control transfer: where
    // the vm.superblock_len histogram records a straight-line run.
    std::vector<uint32_t> cf_pos;
  };
  static constexpr uint32_t kTraceThreshold = 64;  // dispatches before recording
  static constexpr size_t kMaxTraceSegments = 16;
  static constexpr size_t kMaxTraceInsns = 512;
  static constexpr size_t kMaxTraces = 256;

  const Exec* FetchDecode(uint64_t addr, std::string* fault);
  // Returns the superblock entered at `addr`, decoding it on a miss (after
  // flushing a full cache), or null on an immediate decode fault (same
  // message as FetchDecode's).
  Block* FetchBlock(uint64_t addr, std::string* fault);
  // Adds `b` to the slot table, growing it to keep the load at most 1/2.
  void InsertBlock(Block* b);
  // The block's execs. Valid until the next FetchBlock grows the pool.
  Exec* ExecsOf(const Block& b) { return exec_pool_.data() + b.first; }
  // Fills ex->spec from ex->insn as decoded at address `addr`.
  void BuildSpec(Exec* ex, uint64_t addr);
  // Fills ex->obs/obs_cycles from the attached observer's plan.
  void PlanObserver(Exec* ex, uint64_t addr);
  // Drops every decoded block, chain link and trace, any recording, and the
  // dispatcher's pending link.
  void ClearCodeCache();
  void RunStepLoop(RunResult* res);
  void RunBlockLoop(RunResult* res);
  // The attached observer's part of `ex` at `addr`, before it executes, in
  // stepper order: the check or call, then the charge. Returns false when
  // the observer halted the run.
  bool Observe(const Exec& ex, uint64_t addr);
  // Executes up to `budget` guest instructions from execs[0..count) through
  // the specialized handlers. A control transfer returns, unless the next
  // exec starts at its target (the guard between a trace's segments).
  // Returns instructions executed (== execs consumed, counting a fused pair
  // as two of each). On return cpu_.rip is materialized to the next
  // instruction to execute. The handlers are threaded: each ends in its own
  // indirect jump to the next one's label. The run's counters stay in locals
  // and are written back before ExecuteOne, around an observer's check or
  // call, and on every return. The observed variant is the same loop with
  // the observer's part ahead of each instruction, so runs with no observer
  // pay nothing for it; a charge-only plan adds its cycles with no
  // write-back.
  size_t ExecSpecs(Exec* execs, size_t count, size_t budget,
                   std::string* fault, bool* faulted) {
    return observer_ == nullptr ? ExecSpecsImpl<false>(execs, count, budget, fault, faulted)
                                : ExecSpecsImpl<true>(execs, count, budget, fault, faulted);
  }
  template <bool kObserved>
  size_t ExecSpecsImpl(Exec* execs, size_t count, size_t budget,
                       std::string* fault, bool* faulted);
  // The unspecialized executor: ExecuteOne over execs[0..n), Observe first.
  // Same contract as ExecSpecs, without the transfer guard (blocks only).
  size_t ExecPlain(Exec* execs, size_t n, std::string* fault, bool* faulted);
  // Runs the trace (cpu_.rip == t.entry), one ExecSpecs call per lap,
  // looping while it closes on itself. Returns false on a fault (message in
  // *fault). Respects instruction/sampler/epoch boundaries exactly: a
  // sample or epoch is taken in place, the instruction limit exits.
  bool ExecTrace(Trace& t, bool track_tramp, bool track_sb, std::string* fault);
  // The instruction index of the next limit, epoch or sample boundary.
  uint64_t NextBoundary() const;
  // The sampler and the epoch hook, when one is due at this instruction.
  void RunBoundaryHooks();
  // Records vm.superblock_len for `done` execs of `t` run from `from`.
  void RecordTraceSuperblocks(const Trace& t, size_t from, size_t done);
  void BeginTraceRecording(Block* head);
  // Appends a fully-executed block to the in-progress recording; finishes
  // (bake or discard) when a stop condition hits. `next_rip` is where
  // execution goes after the block.
  void RecordTraceBlock(const Block& b, uint64_t next_rip);
  void FinishTraceRecording(bool bake);
  // The trampoline/inline-check range containing `addr`, or null.
  const TrampRange* TrampRangeAt(uint64_t addr) const;
  // Telemetry key for `site` in the current trampoline's image: plain in
  // single-image runs (back-compat), (image, site)-packed in multi-image
  // runs so per-library counters stay unambiguous (§7.4).
  uint32_t SiteKeyFor(uint32_t site) const;
  void OnCountSite(uint32_t site);       // telemetry bookkeeping for Op::kCount
  // The visit bookkeeping on an edge into `range` (null = user code): closes
  // the current trampoline slice and opens the next when the attribution
  // (user, trampoline or inline region, image) changes. Called only with a
  // sink attached, before the first instruction after the edge.
  void EnterRange(const TrampRange* range);
  void FlushTrampolineVisit();           // close the current trampoline slice
  void TakeSampleNow();                  // sampler_ fires at this boundary
  // --metrics-epoch ordinal of the current instant (0 when epochs are off).
  uint64_t CurrentEpoch() const {
    return epoch_every_ != 0 ? instructions_ / epoch_every_ : 0;
  }
  bool ReportMemErrorImpl(uint32_t site, ErrorKind kind, uint64_t addr,
                          bool has_addr);
  // Returns false if the run should halt; fills halt info.
  bool ExecuteOne(const Exec& ex, std::string* fault);
  bool DoHostCall(HostFn fn, std::string* fault);

  CycleModel model_;
  Memory memory_;
  CpuState cpu_;
  GuestAllocator* allocator_ = nullptr;
  ExecObserver* observer_ = nullptr;
  TelemetryRegistry* telemetry_ = nullptr;
  TelemetryShard* tshard_ = nullptr;  // this VM's shard of telemetry_
  TraceWriter* trace_ = nullptr;
  Policy policy_ = Policy::kHarden;
  Rng rng_{0x5eedULL};

  std::vector<uint64_t> inputs_;
  size_t input_pos_ = 0;
  std::vector<uint64_t> outputs_;
  std::vector<MemErrorReport> mem_errors_;
  // Latched by a TrapCode::kErrAddr prologue trap; consumed (and cleared)
  // by the kMemError trap that immediately follows it.
  uint64_t pending_err_addr_ = 0;
  bool pending_err_has_addr_ = false;
  std::unordered_map<uint32_t, uint64_t> counters_;
  std::unordered_map<uint32_t, ProfCounts> prof_counts_;
  std::unordered_map<uint64_t, Exec> icache_;     // step engine decode cache
  // Block engine code cache: open addressing over pointer-stable blocks.
  std::vector<CacheSlot> cache_slots_;            // power of two, lazily sized
  // Every cached block. Reserved to the capacity, so a block never moves
  // before the flush that drops it.
  std::vector<Block> blocks_;
  std::vector<Exec> exec_pool_;  // the cached blocks' execs, back to back
  size_t code_cache_size_ = kDefaultCodeCacheSize;  // capacity; power of two
  // Fully-executed predecessor awaiting a link to the next dispatched block.
  Block* patch_from_ = nullptr;
  int patch_slot_ = 0;

  bool chain_ = true;
  bool spec_ = true;
  DispatchStats dispatch_;
  std::vector<std::unique_ptr<Trace>> traces_;  // stable across growth
  // In-progress trace recording (at most one at a time).
  bool trace_recording_ = false;
  Block* trace_head_ = nullptr;
  Trace trace_rec_;

  VmEngine engine_ = VmEngine::kBlock;
  uint64_t epoch_every_ = 0;
  uint64_t epoch_next_ = 0;
  std::function<void()> epoch_hook_;
  SampleProfiler* sampler_ = nullptr;
  uint64_t sampler_next_ = 0;  // instruction index of the next sample

  uint64_t instruction_limit_ = 200'000'000'000ULL;
  uint64_t instructions_ = 0;
  uint64_t cycles_ = 0;
  uint64_t explicit_reads_ = 0;
  uint64_t explicit_writes_ = 0;

  // Set while executing: halt requested by the current instruction.
  bool halt_ = false;
  HaltReason halt_reason_ = HaltReason::kHlt;
  uint64_t exit_status_ = 0;

  // --- telemetry-only state (untouched when no sink is attached) -----------
  // Trampoline sections of every loaded image; accumulated across LoadImage
  // calls (shared-object runs map several images into one address space).
  // Each range remembers which image (by load ordinal) owns it so per-site
  // counters can be keyed per image.
  struct TrampRange {
    uint64_t lo = 0;
    uint64_t hi = 0;
    uint32_t image = 0;
    // True for the image's inline-check (hot-tier) region: its visits are
    // attributed to SiteEvent::kInlineCycles instead of kTrampCycles.
    bool inline_region = false;
  };
  std::vector<TrampRange> tramp_ranges_;
  const std::unordered_map<uint32_t, uint64_t>* site_addrs_ = nullptr;
  uint32_t images_loaded_ = 0;   // LoadImage calls; the next image's ordinal
  bool t_in_tramp_ = false;      // rip currently inside a trampoline section
  bool t_inline_ = false;        // ... and that section is an inline-check region
  bool t_have_site_ = false;     // current visit has executed a Count yet
  uint32_t t_site_ = 0;          // last site counted in the current visit (plain id)
  uint32_t t_image_ = 0;         // image ordinal of the current trampoline
  uint64_t t_entry_cycles_ = 0;  // cycles_ when the current visit began
  uint64_t t_tramp_cycles_ = 0;  // total trampoline cycles, all visits
  uint64_t t_tramp_reported_ = 0;  // portion already pushed to the registry
  uint64_t t_inline_cycles_ = 0;   // total inline-check cycles, all visits
  uint64_t t_inline_reported_ = 0;  // portion already pushed to the registry
  uint64_t t_live_allocs_ = 0;   // malloc minus free (trace counter track)

  // Histogram cells (owned by telemetry_; fetched once in set_telemetry so
  // the hot paths cost one null check each when telemetry is detached).
  HistogramCell* h_tramp_visit_ = nullptr;     // vm.tramp_visit_cycles
  HistogramCell* h_superblock_len_ = nullptr;  // vm.superblock_len
  HistogramCell* h_malloc_bytes_ = nullptr;    // heap.malloc_bytes
  HistogramCell* h_live_bytes_ = nullptr;      // heap.live_bytes
  HistogramCell* h_live_objects_ = nullptr;    // heap.live_objects
  HistogramCell* h_alloc_lifetime_ = nullptr;  // heap.alloc_lifetime_cycles
  HistogramCell* h_error_distance_ = nullptr;  // vm.error_distance
  // Length of the current dynamic straight-line run (instructions executed
  // since the last control transfer) — the engine-invariant definition of
  // "superblock length", identical whether runs dispatch per-insn or
  // per-block.
  uint64_t sb_run_len_ = 0;

  // Heap bookkeeping for histograms + forensics: base -> {requested size,
  // cycles at allocation}. Maintained only while a heap histogram sink or a
  // HeapObserver is attached.
  struct LiveAlloc {
    uint64_t size = 0;
    uint64_t cycles = 0;
  };
  HeapObserver* heap_obs_ = nullptr;
  std::unordered_map<uint64_t, LiveAlloc> live_allocs_;
  uint64_t live_bytes_ = 0;
  uint64_t live_bytes_peak_ = 0;
};

}  // namespace redfat

#endif  // REDFAT_SRC_VM_VM_H_
