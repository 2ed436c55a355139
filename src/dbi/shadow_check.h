// The debug hardening tier's DBI layer (core/policy.h, --harden=debug):
// memcheck-grade shadow-state classification of every explicit memory
// access the static rewriter did NOT harden.
//
// The inline checks of a hardened binary only cover instrumentable sites;
// eliminated operands, rewrite-skipped sites, and (under the fast tier's
// planning) bare ambiguous sites execute unchecked. Under the debug tier
// the binary runs with RuntimeKind::kRedFatDebug — whose allocator mirrors
// every object's redzone/payload/freed state into the guest shadow map —
// and this observer classifies each access against that map, exactly like
// the Memcheck baseline but layered OVER the statically hardened binary:
// accesses inside trampoline/inline-check sections are skipped (their
// metadata loads legitimately touch redzone-state memory).
//
// Costs reuse the Memcheck model (dispatch + shadow-check per access,
// superblock chaining on control transfers): the debug tier is explicitly
// a DBI-priced configuration, not a production one. Like Memcheck, the
// observer plans each instruction when the VM decodes it (no charge and no
// check inside trampoline code), so the fast engine keeps chaining and
// traces on and calls Check only before the flagged accesses.
#ifndef REDFAT_SRC_DBI_SHADOW_CHECK_H_
#define REDFAT_SRC_DBI_SHADOW_CHECK_H_

#include <cstdint>

#include "src/dbi/memcheck.h"
#include "src/vm/vm.h"

namespace redfat {

class ShadowCheckObserver : public ExecObserver {
 public:
  explicit ShadowCheckObserver(MemcheckCostModel costs = MemcheckCostModel{})
      : costs_(costs) {}

  // OnInstruction is the default Plan-then-Check.
  bool Plan(const Vm& vm, uint64_t addr, const Instruction& insn,
            ObserverPlan* plan) const override;
  void Check(Vm& vm, uint64_t addr, const Instruction& insn) override;

  uint64_t checks() const { return checks_; }
  uint64_t errors() const { return errors_; }

 private:
  MemcheckCostModel costs_;
  uint64_t checks_ = 0;
  uint64_t errors_ = 0;
};

}  // namespace redfat

#endif  // REDFAT_SRC_DBI_SHADOW_CHECK_H_
