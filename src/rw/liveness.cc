#include "src/rw/liveness.h"

#include <algorithm>

#include "src/support/check.h"

namespace redfat {

namespace {

ClobberInfo MakeClobberInfo(uint32_t dead, bool flags_dead) {
  ClobberInfo out;
  for (int r = 0; r < kNumGprs; ++r) {
    if ((dead >> r & 1u) != 0) {
      out.dead_regs.push_back(static_cast<Reg>(r));
    }
  }
  out.flags_dead = flags_dead;
  return out;
}

}  // namespace

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
  return MakeClobberInfo(dead, flags_dead);
}

std::vector<ClobberInfo> ComputeClobbersMany(const Disassembly& dis, const CfgInfo& cfg,
                                             const std::vector<size_t>& indices) {
  // The leaders in instruction order (slots into `indices`), then split into
  // runs that share a basic block: each run is one backward walk.
  std::vector<size_t> order(indices.size());
  for (size_t k = 0; k < order.size(); ++k) {
    REDFAT_CHECK(indices[k] < dis.insns.size());
    order[k] = k;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return indices[a] < indices[b]; });
  std::vector<size_t> runs;
  for (size_t k = 0; k < order.size(); ++k) {
    if (k == 0 || cfg.block_id[indices[order[k]]] != cfg.block_id[indices[order[k - 1]]]) {
      runs.push_back(k);
    }
  }
  runs.push_back(order.size());

  std::vector<ClobberInfo> out(indices.size());
  for (size_t g = 0; g + 1 < runs.size(); ++g) {
    const size_t first = indices[order[runs[g]]];
    const size_t last = indices[order[runs[g + 1] - 1]];
    const uint32_t block = cfg.block_id[first];
    size_t end = last + 1;
    while (end < dis.insns.size() && cfg.block_id[end] == block) {
      ++end;
    }
    // ComputeClobbers' forward scan, run backwards: `dead` holds what that
    // scan would find from instruction i on. A register is dead at i when
    // i writes it without reading it, or i leaves it alone and it is dead
    // at i + 1; the flags take their first reader or writer. A control
    // transfer, where the scan stops, can only be a block's last
    // instruction (RecoverCfg starts a block after each one), so the walk
    // starts from nothing and never resets.
    uint32_t dead = 0;
    bool flags_dead = false;
    size_t k = runs[g + 1];
    for (size_t i = end; i-- > first;) {
      const Instruction& in = dis.insns[i].insn;
      dead = (dead | RegsWritten(in)) & ~RegsRead(in);
      if (ReadsFlags(in.op) || WritesFlags(in.op)) {
        flags_dead = !ReadsFlags(in.op);
      }
      for (; k > runs[g] && indices[order[k - 1]] == i; --k) {
        out[order[k - 1]] = MakeClobberInfo(dead, flags_dead);
      }
    }
  }
  return out;
}

}  // namespace redfat
