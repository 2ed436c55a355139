#include "src/rw/liveness.h"

#include "src/support/check.h"
#include "src/support/parallel.h"

namespace redfat {

ClobberInfo ComputeClobbers(const Disassembly& dis, const CfgInfo& cfg, size_t index) {
  REDFAT_CHECK(index < dis.insns.size());
  // First event wins: a register read before any write is live; a register
  // written first is dead at the instrumentation point (its old value is
  // never observed again). Unresolved registers are conservatively live.
  // Once every GPR and the flags are resolved, later instructions cannot
  // change the answer.
  uint32_t live = 0;
  uint32_t dead = 0;
  bool flags_resolved = false;
  bool flags_dead = false;
  const uint32_t block = cfg.block_id[index];
  for (size_t i = index; i < dis.insns.size() && cfg.block_id[i] == block; ++i) {
    const Instruction& in = dis.insns[i].insn;
    live |= RegsRead(in) & ~dead;
    dead |= RegsWritten(in) & ~live;
    if (!flags_resolved && (ReadsFlags(in.op) || WritesFlags(in.op))) {
      flags_resolved = true;
      flags_dead = !ReadsFlags(in.op);
    }
    if (IsControlFlow(in.op) || ((live | dead) == kAllGprs && flags_resolved)) {
      break;
    }
  }
  ClobberInfo out;
  for (int r = 0; r < kNumGprs; ++r) {
    if ((dead >> r & 1u) != 0) {
      out.dead_regs.push_back(static_cast<Reg>(r));
    }
  }
  out.flags_dead = flags_dead;
  return out;
}

std::vector<ClobberInfo> ComputeClobbersMany(const Disassembly& dis, const CfgInfo& cfg,
                                             const std::vector<size_t>& indices,
                                             unsigned jobs) {
  std::vector<ClobberInfo> out(indices.size());
  ParallelFor(jobs, indices.size(),
              [&](size_t i) { out[i] = ComputeClobbers(dis, cfg, indices[i]); });
  return out;
}

std::vector<ClobberInfo> ComputeClobbersMany(const Disassembly& dis, const CfgInfo& cfg,
                                             const std::vector<size_t>& indices,
                                             ThreadPool* pool) {
  if (pool == nullptr) {
    return ComputeClobbersMany(dis, cfg, indices, 1u);
  }
  std::vector<ClobberInfo> out(indices.size());
  pool->ParallelFor(indices.size(),
                    [&](size_t i) { out[i] = ComputeClobbers(dis, cfg, indices[i]); });
  return out;
}

}  // namespace redfat
