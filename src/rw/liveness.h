// Register & flags clobber analysis (paper §6, "Additional low-level
// optimizations").
//
// Trampoline check code needs 3-4 scratch registers and clobbers the flags.
// A register that is overwritten (before being read) between the
// instrumentation point and the end of its basic block is *dead* there and
// can be used without a save/restore pair; likewise for the flags register.
// Everything is conservative at block boundaries: live unless proven dead.
#ifndef REDFAT_SRC_RW_LIVENESS_H_
#define REDFAT_SRC_RW_LIVENESS_H_

#include <vector>

#include "src/rw/disasm.h"

namespace redfat {

struct ClobberInfo {
  // Registers proven dead immediately *before* the instrumented instruction
  // executes (the check runs first, then the displaced instruction).
  std::vector<Reg> dead_regs;
  bool flags_dead = false;
};

// Computes clobber information for an instrumentation point at instruction
// `index`. The scan starts *at* insns[index] itself: registers it merely
// reads are not dead, registers it writes first are. It runs forward to the
// block's end or its first control transfer. This is the lazy accessor's
// path and the oracle of the batch form.
ClobberInfo ComputeClobbers(const Disassembly& dis, const CfgInfo& cfg, size_t index);

// Batch form, equal to ComputeClobbers at every index: the indices are
// grouped by basic block, and each block that holds one is walked once,
// backwards from its end. Returns one entry per input index (any order,
// repeats allowed), in input order.
std::vector<ClobberInfo> ComputeClobbersMany(const Disassembly& dis, const CfgInfo& cfg,
                                             const std::vector<size_t>& indices);

}  // namespace redfat

#endif  // REDFAT_SRC_RW_LIVENESS_H_
