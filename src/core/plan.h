// Instrumentation planning: which memory operands get which check, and how
// checks are grouped into trampolines.
//
// Planning stages (all static analysis over the stripped binary), each an
// independently callable function so the pass pipeline (core/pipeline.h)
// can run, time, and disable them individually:
//   1. ClassifyOperands — enumerate explicit memory operands (reads/writes
//      per options) and classify each (eliminable / ambiguous /
//      unambiguous-pointer);
//   2. check elimination (§6): drop operands that provably cannot reach the
//      heap under the fixed address-space layout;
//   3. SelectSites — per-site policy: full (Redzone)+(LowFat) if the site
//      is allow-listed and its pointer arithmetic is unambiguous (a
//      non-rsp/rip base register exists), else (Redzone)-only;
//   4. SingletonTrampolines + BatchTrampolines — check batching (§6): group
//      consecutive same-block sites whose operands can be evaluated at the
//      leader without changing their effective address;
//   5. MergeTrampolineChecks — check merging (§6): fold same-shape operands
//      within a batch into one check over the union of their access ranges.
//
// BuildPlan composes all stages and remains the single-call entry point.
#ifndef REDFAT_SRC_CORE_PLAN_H_
#define REDFAT_SRC_CORE_PLAN_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/options.h"
#include "src/rw/disasm.h"

namespace redfat {

enum class CheckKind : uint8_t {
  kRedzoneOnly,  // base computed from the accessed address only
  kFull,         // (Redzone)+(LowFat): base computed from the pointer first
};

// Profile-guided check tier (closing the telemetry -> plan loop). Without a
// profile every site is kWarm and planning/codegen behave exactly as before;
// a profile promotes the sites that dominate runtime trampoline cycles to
// kHot (aggressive batching + placement in the inline-check region) and
// leaves every other site kWarm.
enum class Tier : uint8_t {
  kWarm = 0,  // unprofiled, or profiled outside the hot set
  kHot,       // top --hot-threshold fraction of profiled tramp cycles
};
const char* TierName(Tier tier);

// Allow-list of instrumentation sites proven (by profiling) safe for the
// (LowFat) component, keyed by original instruction address — stable across
// re-instrumentation of the same input binary (Fig. 5).
struct AllowList {
  std::unordered_set<uint64_t> addrs;
  bool Contains(uint64_t addr) const { return addrs.count(addr) != 0; }
};

// One check to emit inside a trampoline. A merged check covers several
// member sites.
struct PlannedCheck {
  MemOperand mem;          // operand shape; disp may be lowered by merging
  uint32_t access_len = 0; // bytes covered (merging widens this)
  CheckKind kind = CheckKind::kRedzoneOnly;
  bool is_write = false;   // any member is a write
  // Original instruction addresses covered (for Count accounting) and the
  // primary site id used in error reports.
  std::vector<uint32_t> member_sites;
  uint64_t anchor_next = 0;  // orig next-insn addr of the first member (rip-rel fixups)
};

// A trampoline to install at `addr` running `checks` then the displaced
// instruction. The tier is the leader site's tier: it selects induction-aware
// batching and which code region the trampoline is emitted into (kHot goes
// to the inline-check region).
struct PlannedTrampoline {
  uint64_t addr = 0;
  size_t insn_index = 0;
  std::vector<PlannedCheck> checks;
  Tier tier = Tier::kWarm;
};

struct SiteRecord {
  uint32_t id = 0;
  uint64_t addr = 0;
  bool is_write = false;
  CheckKind kind = CheckKind::kRedzoneOnly;
  Tier tier = Tier::kWarm;  // assigned by the tier pass; kWarm without a profile
};

// A prior run's per-site trampoline-cycle profile, joined against the plan
// during the tier pass. `cycles_by_site` is keyed by the *profiled* image's
// site ids; `sitemap` (optional) is that image's site table, used to re-join
// by instruction address and to reject profiles taken from a different
// binary (mismatching entries are ignored, never mis-tiered). Without a
// sitemap, ids are joined directly — valid when the profile came from the
// same input instrumented with the same planning options (site numbering is
// deterministic).
struct TierProfile {
  std::unordered_map<uint32_t, uint64_t> cycles_by_site;
  const std::vector<SiteRecord>* sitemap = nullptr;
};

struct TierStats {
  size_t hot = 0;         // sites promoted to Tier::kHot
  size_t unknown = 0;     // profile ids with no such site (ignored)
  size_t mismatched = 0;  // sitemap join failed addr/kind/rw (ignored)
};

// Assigns a tier to every site: profiled sites are ranked by cycles
// (descending, site id breaking ties) and the minimal prefix reaching
// `hot_threshold` of the total becomes kHot; every other site stays kWarm.
// Zero-cycle profiles promote nothing. Deterministic for any job count (pure function of the inputs).
TierStats AssignSiteTiers(const TierProfile& profile, double hot_threshold,
                          std::vector<SiteRecord>* sites);

struct PlanStats {
  size_t mem_operands = 0;       // all explicit memory operands in the binary
  size_t considered = 0;         // after the read/write filter
  size_t eliminated = 0;         // dropped by check elimination
  size_t redzone_dropped = 0;    // (Redzone)-only sites left bare (fast tier)
  size_t full_sites = 0;
  size_t redzone_sites = 0;
  size_t trampolines = 0;        // after batching
  size_t checks_emitted = 0;     // after merging
};

struct InstrumentPlan {
  std::vector<PlannedTrampoline> trampolines;
  std::vector<SiteRecord> sites;  // indexed by site id
  PlanStats stats;
};

// Is this operand provably unable to reach low-fat heap memory (§6 check
// elimination)? True for operands with no index register whose base is
// absent, rsp, or rip — all at least 2 GiB away from the heap regions under
// the fixed layout.
bool IsEliminable(const MemOperand& mem);

// Does the operand carry unambiguous pointer arithmetic (§3), i.e. a base
// register that is plausibly the pointer? rsp/rip-based operands do not.
bool HasUnambiguousPointer(const MemOperand& mem);

// Per-instruction operand classification (stage 1). Cached by the pipeline
// as the "operand classes" analysis.
enum class OperandClass : uint8_t {
  kNone,         // no explicit memory operand
  kFiltered,     // memory operand excluded by the read/write options
  kEliminable,   // provably non-heap: check-elimination candidate
  kAmbiguous,    // heap-reachable, but no unambiguous pointer base
  kUnambiguous,  // heap-reachable with an unambiguous pointer base
};

// One entry per instruction in `dis`. Fills stats->mem_operands and
// stats->considered.
std::vector<OperandClass> ClassifyOperands(const Disassembly& dis, const RedFatOptions& opts,
                                           PlanStats* stats);

// A classified check candidate for one instruction, before trampoline
// formation. The check's member_sites holds its (single) site id.
struct SiteCandidate {
  size_t insn_index = 0;
  PlannedCheck check;
};

// Stages 2+3: site selection. Drops kEliminable operands when `apply_elim`
// (filling stats->eliminated), decides each surviving site's CheckKind
// against the allow-list/options, assigns sequential site ids in address
// order, and appends the SiteRecords to `sites`.
std::vector<SiteCandidate> SelectSites(const Disassembly& dis,
                                       const std::vector<OperandClass>& classes,
                                       const RedFatOptions& opts, const AllowList* allow,
                                       bool apply_elim, PlanStats* stats,
                                       std::vector<SiteRecord>* sites);

// Stage 4a: one trampoline per candidate (the unbatched layout).
std::vector<PlannedTrampoline> SingletonTrampolines(const Disassembly& dis,
                                                    std::vector<SiteCandidate> candidates);

// Stage 4b: check batching (§6). Coalesces consecutive singleton
// trampolines within a basic block when the later operand's registers are
// unmodified since the leader (so all effective addresses can be evaluated
// at the leader), with barriers at recovered jump targets and after
// calls/hostcalls/traps.
// Hot leaders additionally fold induction-stepped operands: when every register of a later operand has
// only been changed by constant add/sub immediates since the leader, the
// check joins the batch with its displacement rebased by the accumulated
// delta — the folded check evaluates the same effective address at the
// leader. With every tier kWarm the scan is bit-for-bit the untiered
// algorithm.
std::vector<PlannedTrampoline> BatchTrampolines(const Disassembly& dis, const CfgInfo& cfg,
                                                std::vector<PlannedTrampoline> singles);

// Stage 5: check merging (§6) within one trampoline.
void MergeTrampolineChecks(PlannedTrampoline* tramp);

InstrumentPlan BuildPlan(const Disassembly& dis, const CfgInfo& cfg, const RedFatOptions& opts,
                         const AllowList* allow);

}  // namespace redfat

#endif  // REDFAT_SRC_CORE_PLAN_H_
