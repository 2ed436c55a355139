#include "src/dbi/memcheck.h"

namespace redfat {

AllocOutcome Memcheck::Malloc(Memory& mem, uint64_t size) {
  const uint64_t ptr = heap_.Alloc(mem, size);
  if (ptr == 0) {
    return AllocOutcome{0, heapcost::kLegacyMalloc};
  }
  shadow_.Mark(ptr - kRedzoneSize, kRedzoneSize, ShadowState::kRedzone);
  shadow_.Mark(ptr, size, ShadowState::kAllocated);
  shadow_.Mark(ptr + size, kRedzoneSize, ShadowState::kRedzone);
  sizes_[ptr] = size;
  return AllocOutcome{ptr, heapcost::kLegacyMalloc + costs_.alloc_extra};
}

FreeOutcome Memcheck::Free(Memory& mem, uint64_t ptr) {
  (void)mem;
  if (ptr == 0) {
    return FreeOutcome{heapcost::kLegacyFree};
  }
  auto it = sizes_.find(ptr);
  if (it == sizes_.end()) {
    // Not a live payload: a guest double free (the shadow still says
    // freed) or an invalid one. Report it and leave the heap untouched.
    FreeOutcome bad{heapcost::kLegacyFree + costs_.alloc_extra};
    bad.corrupted = true;
    bad.corrupt_kind = shadow_.Query(ptr) == ShadowState::kFree
                           ? ErrorKind::kDoubleFree
                           : ErrorKind::kFreelistCorruption;
    bad.corrupt_addr = ptr;
    return bad;
  }
  shadow_.Mark(ptr, it->second, ShadowState::kFree);
  sizes_.erase(it);
  quarantine_.push_back(ptr);
  if (quarantine_.size() > quarantine_blocks_) {
    heap_.Free(quarantine_.front());
    quarantine_.pop_front();
  }
  return FreeOutcome{heapcost::kLegacyFree + costs_.alloc_extra};
}

bool Memcheck::Plan(const Vm& /*vm*/, uint64_t /*addr*/, const Instruction& insn,
                    ObserverPlan* plan) const {
  *plan = costs_.PlanFor(insn.op);
  return true;
}

void Memcheck::Check(Vm& vm, uint64_t addr, const Instruction& insn) {
  const uint64_t ea =
      ComputeEffectiveAddress(vm.cpu(), insn.mem, addr + EncodedLength(insn.op));
  const ShadowState state = shadow_.QueryRange(ea, insn.mem.access_size());
  if (state == ShadowState::kRedzone) {
    vm.ReportMemError(0, ErrorKind::kBounds, ea);
  } else if (state == ShadowState::kFree) {
    vm.ReportMemError(0, ErrorKind::kUaf, ea);
  }
}

RunOutcome RunMemcheck(const BinaryImage& image, const RunConfig& config,
                       MemcheckCostModel costs) {
  Vm vm(config.model);
  Memcheck memcheck(costs);
  vm.set_allocator(&memcheck);
  vm.set_observer(&memcheck);
  vm.set_policy(config.policy);
  vm.set_inputs(config.inputs);
  vm.set_rng_seed(config.rng_seed);
  vm.set_instruction_limit(config.instruction_limit);
  vm.set_engine(config.engine);
  vm.set_chaining(config.chain);
  vm.set_specialize(config.specialize);
  if (config.code_cache_size != 0) {
    vm.set_code_cache_size(config.code_cache_size);
  }
  if (config.metrics_epoch != 0 && config.on_epoch) {
    vm.set_epoch_hook(config.metrics_epoch, config.on_epoch);
  }
  vm.set_telemetry(config.telemetry);
  vm.set_trace(config.trace);
  vm.set_sampler(config.sampler);
  vm.set_heap_observer(config.forensics);
  vm.LoadImage(image);

  RunOutcome out;
  out.result = vm.Run();
  out.outputs = vm.outputs();
  out.errors = vm.mem_errors();
  out.counters = vm.counters();
  out.prof_counts = vm.prof_counts();
  out.touched_pages = vm.memory().TouchedPages();
  if (config.forensics != nullptr) {
    for (const MemErrorReport& e : out.errors) {
      out.forensic_reports.push_back(BuildForensicReport(
          e, *config.forensics, vm.memory(), nullptr, config.forensic_tier));
    }
  }
  return out;
}

}  // namespace redfat
