// Disassembly and conservative control-flow recovery for stripped binaries.
//
// The rewriter has no symbols or relocations to lean on, so basic-block
// recovery is heuristic and deliberately *over-approximates* jump targets
// (paper §6: an over-approximation only shrinks batches, never breaks
// correctness). Recovered targets come from:
//   * direct rel32 branch/call targets;
//   * any imm64 constant (mov $imm64) that lands inside the text section
//     (jump tables / function-pointer material);
//   * any aligned u64 word in data sections that lands inside text.
// A disassembly keeps no index: lookups by address binary-search `insns`.
#ifndef REDFAT_SRC_RW_DISASM_H_
#define REDFAT_SRC_RW_DISASM_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/bin/image.h"
#include "src/isa/isa.h"
#include "src/support/result.h"

namespace redfat {

class ThreadPool;

struct DisasmInsn {
  uint64_t addr = 0;
  unsigned length = 0;
  Instruction insn;

  uint64_t end() const { return addr + length; }
};

struct Disassembly {
  uint64_t text_vaddr = 0;
  uint64_t text_end = 0;
  std::vector<DisasmInsn> insns;  // sorted by address

  bool InText(uint64_t addr) const { return addr >= text_vaddr && addr < text_end; }
  // Index of the instruction starting at `addr`, or SIZE_MAX.
  size_t IndexAt(uint64_t addr) const;
};

// Linear-sweep disassembly of the text section. With a pool, fixed-size
// address chunks are decoded speculatively in parallel and stitched back
// together with a deterministic serial cursor walk; the result (and any
// decode error) is byte-identical to the serial sweep.
Result<Disassembly> DisassembleText(const BinaryImage& image,
                                    ThreadPool* pool = nullptr);

struct CfgInfo {
  // Addresses that some (recovered, over-approximated) control transfer may
  // target. Instrumentation must not pun over these.
  std::unordered_set<uint64_t> jump_targets;
  // The same targets by instruction index (parallel to Disassembly::insns;
  // 1 = some recovered transfer may land on this instruction).
  std::vector<uint8_t> is_jump_target;
  // Basic-block id per instruction (parallel to Disassembly::insns).
  std::vector<uint32_t> block_id;
  uint32_t num_blocks = 0;
};

// With a pool, target collection runs over instruction ranges (set-union is
// order-insensitive) and block ids are assigned by a leader-count prefix sum;
// both are independent of the job count.
CfgInfo RecoverCfg(const Disassembly& dis, const BinaryImage& image,
                   ThreadPool* pool = nullptr);

}  // namespace redfat

#endif  // REDFAT_SRC_RW_DISASM_H_
