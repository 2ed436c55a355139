// The rfi (RedFat ISA) instruction set.
//
// A compact x86-64-like instruction set with exactly the properties the
// RedFat paper relies on at the binary level:
//
//   * 16 general-purpose 64-bit registers plus a flags register;
//   * memory operands of the full x86_64 shape seg:disp(base,index,scale)
//     (the segment component is modeled but always flat/zero, as on Linux
//     x86_64 for the data segments RedFat instruments);
//   * variable-length byte encoding, so static rewriting must deal with
//     instruction spans and displaced-instruction relocation;
//   * no type information whatsoever: pointer and integer arithmetic are
//     indistinguishable except inside memory operands (paper §3).
//
// The encoding is deliberately simple (opcode byte + fixed per-opcode layout)
// but variable length (1..14 bytes), and `jmp rel32` is exactly 5 bytes, so
// the E9Patch-style patching substrate faces the real "patch an instruction
// shorter than the jump" problem for short instructions.
#ifndef REDFAT_SRC_ISA_ISA_H_
#define REDFAT_SRC_ISA_ISA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/result.h"

namespace redfat {

// ---------------------------------------------------------------------------
// Registers
// ---------------------------------------------------------------------------

enum class Reg : uint8_t {
  kRax = 0,
  kRcx = 1,
  kRdx = 2,
  kRbx = 3,
  kRsp = 4,
  kRbp = 5,
  kRsi = 6,
  kRdi = 7,
  kR8 = 8,
  kR9 = 9,
  kR10 = 10,
  kR11 = 11,
  kR12 = 12,
  kR13 = 13,
  kR14 = 14,
  kR15 = 15,
  // Pseudo-register: usable only as a memory-operand base (rip-relative
  // addressing). Never a GPR operand.
  kRip = 16,
  kNone = 17,
};

inline constexpr int kNumGprs = 16;

const char* RegName(Reg r);
inline bool IsGpr(Reg r) { return static_cast<uint8_t>(r) < kNumGprs; }
inline int RegIndex(Reg r) { return static_cast<int>(r); }

// ---------------------------------------------------------------------------
// Condition codes
// ---------------------------------------------------------------------------

enum class Cond : uint8_t {
  kEq = 0,   // ZF
  kNe = 1,   // !ZF
  kUlt = 2,  // CF           (b)
  kUle = 3,  // CF || ZF     (be)
  kUgt = 4,  // !CF && !ZF   (a)
  kUge = 5,  // !CF          (ae)
  kSlt = 6,  // SF != OF     (l)
  kSle = 7,  // SF != OF || ZF
  kSgt = 8,  // SF == OF && !ZF
  kSge = 9,  // SF == OF
};

const char* CondName(Cond c);

// ---------------------------------------------------------------------------
// Memory operands
// ---------------------------------------------------------------------------

// A memory operand is the 5-tuple seg:disp(base,index,scale) (§4.1 of the
// paper). The segment is modeled but fixed to the flat segment; the access
// size (1/2/4/8 bytes) is carried in the operand because our loads/stores
// take it from here.
struct MemOperand {
  Reg base = Reg::kNone;   // may be kRip for rip-relative addressing
  Reg index = Reg::kNone;  // never kRip
  uint8_t scale_log2 = 0;  // scale in {1,2,4,8}
  uint8_t size_log2 = 3;   // access size in {1,2,4,8} bytes
  int32_t disp = 0;

  uint32_t scale() const { return 1u << scale_log2; }
  uint32_t access_size() const { return 1u << size_log2; }
  bool has_base() const { return base != Reg::kNone; }
  bool has_index() const { return index != Reg::kNone; }
  bool rip_relative() const { return base == Reg::kRip; }

  bool SameAddressShape(const MemOperand& o) const {
    return base == o.base && index == o.index && scale_log2 == o.scale_log2;
  }

  friend bool operator==(const MemOperand&, const MemOperand&) = default;
};

// ---------------------------------------------------------------------------
// Opcodes
// ---------------------------------------------------------------------------

enum class Op : uint8_t {
  // 0 is deliberately not a valid opcode: executing zeroed memory faults
  // immediately instead of sliding through a NOP sled.
  kInvalid = 0,
  kNop,
  kHlt,    // stop the machine (normal termination)
  kUd2,    // illegal instruction: faults; used as patch filler like int3
  kMovRI,  // r0 <- imm64
  kMovRR,  // r0 <- r1
  kLoad,   // r0 <- zext([mem])           (access size from mem.size_log2)
  kStoreR, // [mem] <- low bytes of r0
  kStoreI, // [mem] <- sign-extended imm32
  kLea,    // r0 <- effective address of mem
  kAddRR,
  kAddRI,  // imm32 sign-extended
  kSubRR,
  kSubRI,
  kImulRR,
  kImulRI,
  kMulhRR,  // r0 <- high 64 bits of unsigned r0*r1 (for magic division)
  kAndRR,
  kAndRI,
  kOrRR,
  kOrRI,
  kXorRR,
  kXorRI,
  kShlRI,  // shift count = imm & 63
  kShrRI,
  kSarRI,
  kShlRR,  // shift count = r1 & 63
  kShrRR,
  kCmpRR,
  kCmpRI,
  kTestRR,
  kJmp,    // rel32 from end of instruction; exactly 5 bytes encoded
  kJmpR,   // indirect jump through r0
  kJcc,    // cond + rel32
  kCall,   // rel32; pushes return address
  kCallR,
  kRet,
  kPush,
  kPop,
  kPushf,
  kPopf,
  kHostCall,  // call into the host runtime (imm = HostFn id); args rdi/rsi/rdx, ret rax
  kTrap,      // VM service trap: r0 unused; imm low 8 bits = code, next 32 = arg
  kCount,     // zero-cycle measurement counter #imm32 (never emitted by guests)
  kNumOps,
};

const char* OpName(Op op);

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

struct Instruction {
  Op op = Op::kNop;
  Reg r0 = Reg::kNone;
  Reg r1 = Reg::kNone;
  Cond cond = Cond::kEq;
  MemOperand mem;
  // imm64 for kMovRI; sign-extended imm32 for *_RI / kStoreI / kTrap arg;
  // shift count for shifts; rel32 displacement for kJmp/kJcc/kCall; host
  // function id for kHostCall; counter id for kCount; trap payload for kTrap
  // (low 8 bits code, bits 8..39 argument).
  int64_t imm = 0;

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

// Fixed encoded length of an instruction with opcode `op`, in bytes.
unsigned EncodedLength(Op op);

// Does this opcode read or write guest memory through `mem`?
bool IsMemAccess(Op op);
// Memory access that writes (store)?
bool IsMemWrite(Op op);
// Control transfer (ends a basic block)?
bool IsControlFlow(Op op);
// Has a rel32 field interpreted relative to the end of the instruction?
bool HasRel32(Op op);
// Writes the flags register?
bool WritesFlags(Op op);
// Reads the flags register?
bool ReadsFlags(Op op);

// GPR sets as masks: bit RegIndex(r) per member (kRip and kNone have none).
inline constexpr uint32_t kAllGprs = (1u << kNumGprs) - 1;
inline uint32_t RegBit(Reg r) { return IsGpr(r) ? 1u << RegIndex(r) : 0u; }

// Registers read / written by an instruction, as GPR masks. kHostCall and
// kTrap are reported conservatively (they read all GPRs and write RAX) so
// that downstream liveness analyses stay sound. RSP is included for
// push/pop/call/ret.
uint32_t RegsRead(const Instruction& insn);
uint32_t RegsWritten(const Instruction& insn);

// ---------------------------------------------------------------------------
// Encoding / decoding
// ---------------------------------------------------------------------------

// Writes the encoding of `insn` to `out`, which must have room for
// EncodedLength(insn.op) bytes. Returns the encoded length.
unsigned Encode(const Instruction& insn, uint8_t* out);
// Appends the encoding of `insn` to `out`. Returns the encoded length.
unsigned Encode(const Instruction& insn, std::vector<uint8_t>* out);

// Byte offset of the memory operand's disp32 field within the encoding of
// an instruction with opcode `op` (a load, store or lea).
unsigned MemDispOffset(Op op);

struct Decoded {
  Instruction insn;
  unsigned length = 0;
};

// Decodes one instruction from `bytes` (at most `size` bytes available).
Result<Decoded> Decode(const uint8_t* bytes, size_t size);

// Human-readable rendering for diagnostics, AT&T-flavored.
std::string ToString(const Instruction& insn);
std::string ToString(const MemOperand& mem);

}  // namespace redfat

#endif  // REDFAT_SRC_ISA_ISA_H_
