// The DBI shadow-check observer: memcheck-grade shadow-state
// classification of every explicit memory access, against the guest shadow
// map (src/shadow/shadow.h). One observer serves two runtimes:
//
//   * the debug hardening tier (core/policy.h, --harden=debug), over a
//     statically hardened binary running with RuntimeKind::kRedFatDebug,
//     whose allocator marks every object in the shadow map. The inline
//     checks cover only instrumentable sites; eliminated operands,
//     rewrite-skipped sites and (under the fast tier's planning) bare
//     ambiguous sites execute unchecked, and this observer catches them.
//     Accesses inside trampoline/inline-check sections are skipped: their
//     metadata loads legitimately touch redzone-state memory.
//   * the Memcheck baseline (dbi/memcheck.h), over the original binary,
//     which has no trampoline ranges, so every instruction is planned.
//
// Costs are the Memcheck model (dispatch + shadow-check per access,
// superblock chaining on control transfers): both are DBI-priced
// configurations, not production ones. The observer plans each
// instruction when the VM decodes it (no charge and no check inside
// trampoline code), so the fast engine keeps chaining and traces on and
// calls Check only before the flagged accesses.
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
