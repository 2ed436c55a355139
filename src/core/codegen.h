// Check code generation: lowers the Fig. 4 pseudo-code into rfi trampoline
// code.
//
// The emitted body implements the merged state/size scheme of §4.2:
// metadata is a single u64 SIZE stored at the object's slot base (inside
// the redzone), with SIZE == 0 encoding Free. The default configuration
// uses the branchless merged lower/upper-bound comparison:
//
//     UB' = zext32(LB - (BASE+16)) + BASE+16 + len
//     error iff UB' > BASE+16+SIZE
//
// which folds the UAF, lower-bound and upper-bound checks into one
// compare+branch (an out-of-range LB underflows the 32-bit difference and
// produces a huge UB').
//
// Register discipline: each check body needs 4 scratch registers that must
// not alias the operand's base/index. Dead registers (clobber analysis,
// §6) are used for free; live ones are push/pop-saved, and the flags are
// pushf/popf-saved unless proven dead. Stack-relative operands get their
// displacement biased by the bytes pushed so far.
//
// Payloads are copied, not re-derived (copy-and-patch, as E9Patch
// instantiates trampoline templates): a rewrite emits thousands of
// trampolines in a few dozen shapes. A payload's shape is everything
// EmitTrampolinePayload, the one definition of the check bodies, reads
// except its per-site values; the first payload of a shape is emitted into a
// scratch assembler that notes where those values land (the holes), and
// every payload copies its shape's bytes and patches its own values in.
#ifndef REDFAT_SRC_CORE_CODEGEN_H_
#define REDFAT_SRC_CORE_CODEGEN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/asm/assembler.h"
#include "src/core/options.h"
#include "src/core/plan.h"
#include "src/rw/liveness.h"

namespace redfat {

// Emits the complete trampoline payload (site counters, register/flags
// saves, one body per planned check, restores) for `tramp`.
void EmitTrampolinePayload(Assembler& as, const PlannedTrampoline& tramp,
                           const ClobberInfo& clobbers, const RedFatOptions& opts);

// The stencil table of one emission chunk, used by one thread (DESIGN.md
// §4.7). Its bytes equal EmitTrampolinePayload's at any base.
class PayloadStencils {
 public:
  explicit PayloadStencils(const RedFatOptions& opts) : opts_(opts) {}

  // Appends the same bytes as EmitTrampolinePayload(as, tramp, clobbers, opts).
  void Emit(Assembler& as, const PlannedTrampoline& tramp, const ClobberInfo& clobbers);

  size_t size() const { return stencils_.size(); }  // distinct shapes seen

  // A per-site value: the last 4 bytes of its instruction.
  struct Hole {
    enum class Kind : uint8_t {
      kSite,        // Count, kProfPass/kProfFail trap: member_sites[arg]
      kErrorArg,    // kMemError trap: PackErrorArg(member_sites[0], error)
      kAccessLen,   // UB AddI: access_len
      kDisp,        // LB lea: mem.disp + arg (the stack bias when rsp-based)
      kRipTarget,   // rip-relative LB lea: recorded as an external rel32
    };
    uint32_t offset = 0;  // from the payload's start
    Kind kind = Kind::kSite;
    ErrorKind error = ErrorKind::kBounds;
    uint32_t check = 0;  // index into the trampoline's checks
    int32_t arg = 0;
  };

 private:
  struct Stencil {  // slices of the flat vectors below
    size_t key_at, key_end, code_at, code_len, holes_at, holes_end;
  };

  const RedFatOptions& opts_;
  std::vector<uint32_t> key_;  // the key being looked up
  std::vector<uint32_t> keys_;
  std::vector<uint8_t> code_;
  std::vector<Hole> holes_;
  std::vector<Stencil> stencils_;
  std::vector<std::pair<uint64_t, uint32_t>> index_;  // (key hash, stencil), sorted
};

}  // namespace redfat

#endif  // REDFAT_SRC_CORE_CODEGEN_H_
