// A Valgrind-Memcheck-like baseline (paper §7.1, last column of Table 1).
//
// Heavyweight dynamic binary instrumentation over the *original* binary:
// every guest instruction pays a JIT/dispatch cost, and every explicit
// memory access is checked against redzone-only shadow memory. Memcheck is
// the allocator half: it wraps each heap object with 16-byte redzones on
// both sides, marks the Redzone/payload/Freed states in the guest shadow
// map (src/shadow/shadow.h) and quarantines freed blocks to catch
// use-after-free. RunMemcheck pairs it with the ShadowCheckObserver
// (dbi/shadow_check.h), which, like Valgrind translating each superblock
// once, plans each instruction when the VM decodes it (a fixed charge, and
// whether to check) and checks only the flagged accesses at run time.
//
// Detection power matches Memcheck's: incremental overflows (into redzones)
// and use-after-free are caught; non-incremental overflows that skip over
// redzones into a neighboring allocation are NOT (Table 2, 0/480).
//
// The dispatch/shadow constants below are the only modeled (non-emergent)
// costs in the project; they are documented in EXPERIMENTS.md and exercised
// by the ablation benches.
#ifndef REDFAT_SRC_DBI_MEMCHECK_H_
#define REDFAT_SRC_DBI_MEMCHECK_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "src/core/harness.h"
#include "src/heap/legacy_heap.h"
#include "src/vm/allocator.h"
#include "src/vm/vm.h"

namespace redfat {

struct MemcheckCostModel {
  uint64_t dispatch = 10;      // per-instruction JIT dispatch/translation cost
  uint64_t shadow_check = 14;  // per-memory-access shadow lookup + compare
  // Valgrind translates and dispatches superblocks: every control transfer
  // pays a block-lookup/chaining cost, which is why branchy/call-heavy code
  // (perlbench, gobmk, povray) suffers far more than streaming code.
  uint64_t branch_extra = 55;
  uint64_t alloc_extra = 150;  // malloc/free interception + shadow marking

  // The plan of one instrumented instruction: dispatch, plus branch_extra
  // on a control transfer, plus shadow_check on an explicit access, which
  // is the one thing checked.
  ObserverPlan PlanFor(Op op) const {
    ObserverPlan plan;
    plan.cycles = dispatch;
    if (IsControlFlow(op)) {
      plan.cycles += branch_extra;
    }
    if (IsMemAccess(op)) {
      plan.cycles += shadow_check;
      plan.check = true;
    }
    return plan;
  }
};

class Memcheck : public GuestAllocator {
 public:
  explicit Memcheck(MemcheckCostModel costs = MemcheckCostModel{},
                    unsigned quarantine_blocks = 256)
      : costs_(costs), quarantine_blocks_(quarantine_blocks), heap_(kRedzoneSize) {}

  AllocOutcome Malloc(Memory& mem, uint64_t size) override;
  FreeOutcome Free(Memory& mem, uint64_t ptr) override;
  const char* name() const override { return "memcheck"; }

 private:
  MemcheckCostModel costs_;
  unsigned quarantine_blocks_;
  LegacyHeap heap_;
  std::unordered_map<uint64_t, uint64_t> sizes_;  // payload ptr -> user size
  std::deque<uint64_t> quarantine_;
};

// Runs the (uninstrumented) image under the Memcheck baseline: the
// Memcheck allocator and a ShadowCheckObserver with the same costs (in
// place of config.observer), through the harness's run body (RunBound).
RunOutcome RunMemcheck(const BinaryImage& image, const RunConfig& config,
                       MemcheckCostModel costs = MemcheckCostModel{});

}  // namespace redfat

#endif  // REDFAT_SRC_DBI_MEMCHECK_H_
