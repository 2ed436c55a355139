#include "src/dbi/shadow_check.h"

#include "src/isa/abi.h"

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
  const unsigned len = insn.mem.access_size();
  // One shadow byte per 8-byte granule; untouched shadow reads kOk.
  const uint64_t first = ea >> 3;
  const uint64_t last = (ea + (len == 0 ? 0 : len - 1)) >> 3;
  GuestShadow state = GuestShadow::kOk;
  for (uint64_t g = first; g <= last; ++g) {
    const auto s = static_cast<GuestShadow>(vm.memory().Read(kGuestShadowBase + g, 1));
    if (s != GuestShadow::kOk) {
      state = s;
      break;
    }
  }
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
