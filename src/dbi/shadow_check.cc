#include "src/dbi/shadow_check.h"

#include "src/shadow/shadow.h"

namespace redfat {

bool ShadowCheckObserver::Plan(const Vm& vm, uint64_t addr, const Instruction& insn,
                               ObserverPlan* plan) const {
  // Instrumentation code: check bodies load redzone-state metadata by
  // design. Classifying those accesses would be pure false positives, and
  // the DBI layer charges nothing there.
  *plan = vm.InTrampoline(addr) ? ObserverPlan{} : costs_.PlanFor(insn.op);
  return true;
}

void ShadowCheckObserver::Check(Vm& vm, uint64_t addr, const Instruction& insn) {
  const uint64_t ea =
      ComputeEffectiveAddress(vm.cpu(), insn.mem, addr + EncodedLength(insn.op));
  const GuestShadow state = ShadowAt(vm.memory(), ea, insn.mem.access_size());
  if (state == GuestShadow::kRedzone) {
    ++errors_;
    vm.ReportMemError(0, ErrorKind::kBounds, ea);
  } else if (state == GuestShadow::kFreed) {
    ++errors_;
    vm.ReportMemError(0, ErrorKind::kUaf, ea);
  }
  ++checks_;
}

}  // namespace redfat
