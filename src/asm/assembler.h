// A small assembler for rfi code: label management, forward references,
// imm64 address fixups, and one emit helper per instruction form.
//
// Used by the workload generators (to build guest "binaries") and by the
// RedFat check code generator (to build trampoline code).
//
// The code is relocatable until Finish(). A rel32 to a label does not
// depend on the base and is patched as soon as both ends are known. Every
// base-dependent field is recorded instead: imm64s holding a label's
// address, and the PC-relative fields that point outside the code
// (JmpAbs/JccAbs/CallAbs targets and EmitRipRelative displacements).
// Finish() resolves those against the base in effect at that moment, so
// code emitted at one base and Rebase()d to another is byte-identical to
// code emitted at the second base directly, and the int32 range checks
// apply to the final addresses.
#ifndef REDFAT_SRC_ASM_ASSEMBLER_H_
#define REDFAT_SRC_ASM_ASSEMBLER_H_

#include <cstdint>
#include <vector>

#include "src/isa/abi.h"
#include "src/isa/isa.h"

namespace redfat {

// Convenience builders for memory operands. SizeLog2: 0=byte .. 3=qword.
inline MemOperand MemAt(Reg base, int32_t disp, uint8_t size_log2 = 3) {
  MemOperand m;
  m.base = base;
  m.disp = disp;
  m.size_log2 = size_log2;
  return m;
}

inline MemOperand MemBIS(Reg base, Reg index, uint8_t scale_log2, int32_t disp,
                         uint8_t size_log2 = 3) {
  MemOperand m;
  m.base = base;
  m.index = index;
  m.scale_log2 = scale_log2;
  m.disp = disp;
  m.size_log2 = size_log2;
  return m;
}

inline MemOperand MemAbs(int32_t addr, uint8_t size_log2 = 3) {
  MemOperand m;
  m.disp = addr;
  m.size_log2 = size_log2;
  return m;
}

class Assembler {
 public:
  // `base_vaddr` is the virtual address the emitted bytes will be loaded at.
  explicit Assembler(uint64_t base_vaddr) : base_vaddr_(base_vaddr) {}

  using Label = uint32_t;

  Label NewLabel() {
    labels_.emplace_back();
    return static_cast<Label>(labels_.size() - 1);
  }

  // Binds `label` to the current position.
  void Bind(Label label);

  // Current virtual address (start of the next emitted instruction).
  uint64_t Here() const { return base_vaddr_ + bytes_.size(); }
  size_t SizeBytes() const { return bytes_.size(); }

  // --- instruction emitters ---------------------------------------------
  void Nop() { Emit({.op = Op::kNop}); }
  void Hlt() { Emit({.op = Op::kHlt}); }
  void Ud2() { Emit({.op = Op::kUd2}); }
  void Ret() { Emit({.op = Op::kRet}); }
  void Pushf() { Emit({.op = Op::kPushf}); }
  void Popf() { Emit({.op = Op::kPopf}); }

  void MovRI(Reg r, uint64_t imm) {
    Emit({.op = Op::kMovRI, .r0 = r, .imm = static_cast<int64_t>(imm)});
  }
  // mov r <- &label (imm64 fixup; used for jump tables / function pointers).
  void MovLabelAddr(Reg r, Label label);
  void MovRR(Reg dst, Reg src) { Emit({.op = Op::kMovRR, .r0 = dst, .r1 = src}); }

  void Load(Reg dst, const MemOperand& mem) { Emit({.op = Op::kLoad, .r0 = dst, .mem = mem}); }
  void Store(Reg src, const MemOperand& mem) {
    Emit({.op = Op::kStoreR, .r0 = src, .mem = mem});
  }
  void StoreI(const MemOperand& mem, int32_t imm) {
    Emit({.op = Op::kStoreI, .mem = mem, .imm = imm});
  }
  void Lea(Reg dst, const MemOperand& mem) { Emit({.op = Op::kLea, .r0 = dst, .mem = mem}); }

  void Add(Reg dst, Reg src) { Emit({.op = Op::kAddRR, .r0 = dst, .r1 = src}); }
  void AddI(Reg dst, int32_t imm) { Emit({.op = Op::kAddRI, .r0 = dst, .imm = imm}); }
  void Sub(Reg dst, Reg src) { Emit({.op = Op::kSubRR, .r0 = dst, .r1 = src}); }
  void SubI(Reg dst, int32_t imm) { Emit({.op = Op::kSubRI, .r0 = dst, .imm = imm}); }
  void Imul(Reg dst, Reg src) { Emit({.op = Op::kImulRR, .r0 = dst, .r1 = src}); }
  void ImulI(Reg dst, int32_t imm) { Emit({.op = Op::kImulRI, .r0 = dst, .imm = imm}); }
  void Mulh(Reg dst, Reg src) { Emit({.op = Op::kMulhRR, .r0 = dst, .r1 = src}); }
  void And(Reg dst, Reg src) { Emit({.op = Op::kAndRR, .r0 = dst, .r1 = src}); }
  void AndI(Reg dst, int32_t imm) { Emit({.op = Op::kAndRI, .r0 = dst, .imm = imm}); }
  void Or(Reg dst, Reg src) { Emit({.op = Op::kOrRR, .r0 = dst, .r1 = src}); }
  void OrI(Reg dst, int32_t imm) { Emit({.op = Op::kOrRI, .r0 = dst, .imm = imm}); }
  void Xor(Reg dst, Reg src) { Emit({.op = Op::kXorRR, .r0 = dst, .r1 = src}); }
  void XorI(Reg dst, int32_t imm) { Emit({.op = Op::kXorRI, .r0 = dst, .imm = imm}); }
  void ShlI(Reg r, uint8_t count) { Emit({.op = Op::kShlRI, .r0 = r, .imm = count}); }
  void ShrI(Reg r, uint8_t count) { Emit({.op = Op::kShrRI, .r0 = r, .imm = count}); }
  void SarI(Reg r, uint8_t count) { Emit({.op = Op::kSarRI, .r0 = r, .imm = count}); }
  void Shl(Reg r, Reg count) { Emit({.op = Op::kShlRR, .r0 = r, .r1 = count}); }
  void Shr(Reg r, Reg count) { Emit({.op = Op::kShrRR, .r0 = r, .r1 = count}); }

  void Cmp(Reg a, Reg b) { Emit({.op = Op::kCmpRR, .r0 = a, .r1 = b}); }
  void CmpI(Reg a, int32_t imm) { Emit({.op = Op::kCmpRI, .r0 = a, .imm = imm}); }
  void Test(Reg a, Reg b) { Emit({.op = Op::kTestRR, .r0 = a, .r1 = b}); }

  void Jmp(Label label) { EmitBranch({.op = Op::kJmp}, label); }
  void Jcc(Cond cond, Label label) { EmitBranch({.op = Op::kJcc, .cond = cond}, label); }
  void Call(Label label) { EmitBranch({.op = Op::kCall}, label); }
  // Direct branch to a known absolute address (e.g. back out of a
  // trampoline into the original code).
  void JmpAbs(uint64_t target) { EmitAbsBranch({.op = Op::kJmp}, target); }
  void JccAbs(Cond cond, uint64_t target) {
    EmitAbsBranch({.op = Op::kJcc, .cond = cond}, target);
  }
  void CallAbs(uint64_t target) { EmitAbsBranch({.op = Op::kCall}, target); }
  void JmpR(Reg r) { Emit({.op = Op::kJmpR, .r0 = r}); }
  void CallR(Reg r) { Emit({.op = Op::kCallR, .r0 = r}); }

  void Push(Reg r) { Emit({.op = Op::kPush, .r0 = r}); }
  void Pop(Reg r) { Emit({.op = Op::kPop, .r0 = r}); }

  void HostCall(HostFn fn) {
    Emit({.op = Op::kHostCall, .imm = static_cast<int64_t>(fn)});
  }
  void Trap(TrapCode code, uint32_t arg) {
    Emit({.op = Op::kTrap,
          .imm = static_cast<int64_t>(static_cast<uint64_t>(code) |
                                      (static_cast<uint64_t>(arg) << 8))});
  }
  void Count(uint32_t counter_id) {
    Emit({.op = Op::kCount, .imm = static_cast<int64_t>(counter_id)});
  }

  // Emits a pre-built instruction (used by the rewriter when relocating
  // displaced instructions).
  void Emit(const Instruction& insn);

  // Emits `insn`, whose memory operand is rip-relative, with the
  // displacement chosen so that the operand addresses `target` wherever the
  // code is finally placed (its own disp is ignored).
  void EmitRipRelative(const Instruction& insn, uint64_t target);

  // Copy-and-patch: appends code assembled elsewhere (a stencil) whose label
  // branches are all resolved inside it, and returns the offset it starts at.
  size_t Append(const uint8_t* code, size_t size);
  // Overwrites the 4-byte field at `offset` (a hole in appended code).
  void Patch32(size_t offset, uint32_t value);
  // Records the rel32/disp32 field at `offset`, in the instruction ending at
  // `insn_end`, as pointing to `target` outside the code. Finish resolves it
  // against the final base, like the fields EmitRipRelative records.
  void ExternalRel32(size_t offset, size_t insn_end, uint64_t target);

  // Moves the code to `new_base`: Finish resolves the base-dependent
  // fields (label addresses and the fields that point outside the code)
  // against it. Label branches are position-independent and do not change.
  void Rebase(uint64_t new_base);

  // Finalizes: applies all fixups. CHECK-fails on unbound labels and on
  // rel32/disp32 fields whose final value does not fit in int32.
  std::vector<uint8_t> Finish();

  uint64_t base_vaddr() const { return base_vaddr_; }

 private:
  // A bound label holds its offset. An unbound one holds the head of the
  // chain of rel32 fields waiting for it (field offset + 1, 0 = none); each
  // waiting field holds the link to the previous one until Bind patches
  // the whole chain.
  struct LabelState {
    uint32_t pos = 0;
    bool bound = false;
  };
  // A field that Finish resolves against the final base.
  struct Fixup {
    enum class Kind {
      kAbs64,     // imm64 holding a label's address
      kExtRel32,  // rel32/disp32 to an absolute address outside the code
    };
    Kind kind;
    size_t field_offset;  // where the 4/8-byte field lives in bytes_
    size_t insn_end;      // offset of the end of the instruction (rel32 anchor)
    uint64_t target;      // label id (kAbs64) or absolute address (kExtRel32)
  };

  void EmitBranch(Instruction insn, Label label);
  void EmitAbsBranch(Instruction insn, uint64_t target);

  uint64_t base_vaddr_;
  std::vector<uint8_t> bytes_;
  std::vector<LabelState> labels_;
  size_t waiting_labels_ = 0;  // unbound labels with a non-empty chain
  std::vector<Fixup> fixups_;
  bool finished_ = false;
};

}  // namespace redfat

#endif  // REDFAT_SRC_ASM_ASSEMBLER_H_
