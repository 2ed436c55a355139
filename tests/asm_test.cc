#include <gtest/gtest.h>

#include "src/asm/assembler.h"
#include "src/bin/image.h"
#include "src/workloads/builder.h"

namespace redfat {
namespace {

TEST(Assembler, BackwardAndForwardBranches) {
  Assembler as(0x1000);
  auto fwd = as.NewLabel();
  auto back = as.NewLabel();
  as.Bind(back);
  as.Nop();
  as.Jmp(fwd);
  as.Jcc(Cond::kEq, back);
  as.Bind(fwd);
  as.Ret();
  const std::vector<uint8_t> bytes = as.Finish();
  // nop(1) jmp(5) jcc(6) ret(1)
  ASSERT_EQ(bytes.size(), 13u);
  Result<Decoded> jmp = Decode(bytes.data() + 1, 5);
  ASSERT_TRUE(jmp.ok());
  // jmp ends at offset 6; target (fwd) at offset 12 -> rel = +6.
  EXPECT_EQ(jmp.value().insn.imm, 6);
  Result<Decoded> jcc = Decode(bytes.data() + 6, 6);
  ASSERT_TRUE(jcc.ok());
  // jcc ends at offset 12; target (back) at 0 -> rel = -12.
  EXPECT_EQ(jcc.value().insn.imm, -12);
}

TEST(Assembler, MovLabelAddrProducesAbsoluteAddress) {
  Assembler as(0x4000);
  auto target = as.NewLabel();
  as.MovLabelAddr(Reg::kRax, target);
  as.Bind(target);
  as.Ret();
  const std::vector<uint8_t> bytes = as.Finish();
  Result<Decoded> mov = Decode(bytes.data(), bytes.size());
  ASSERT_TRUE(mov.ok());
  EXPECT_EQ(static_cast<uint64_t>(mov.value().insn.imm), 0x4000u + 10u);
}

TEST(Assembler, JmpAbsAndJccAbs) {
  Assembler as(0x2000);
  as.JmpAbs(0x2000);  // self-loop: rel = -5
  as.JccAbs(Cond::kNe, 0x3000);
  const std::vector<uint8_t> bytes = as.Finish();
  Result<Decoded> j = Decode(bytes.data(), bytes.size());
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().insn.imm, -5);
  Result<Decoded> jcc = Decode(bytes.data() + 5, bytes.size() - 5);
  ASSERT_TRUE(jcc.ok());
  EXPECT_EQ(jcc.value().insn.imm, 0x3000 - (0x2000 + 5 + 6));
}

TEST(Assembler, HereTracksPosition) {
  Assembler as(0x100);
  EXPECT_EQ(as.Here(), 0x100u);
  as.Nop();
  EXPECT_EQ(as.Here(), 0x101u);
  as.MovRI(Reg::kRax, 0);
  EXPECT_EQ(as.Here(), 0x10bu);
}

TEST(Assembler, ForwardLabelWithSeveralBranches) {
  Assembler as(0x1000);
  auto target = as.NewLabel();
  as.Jmp(target);               // [0, 5)
  as.Jcc(Cond::kNe, target);    // [5, 11)
  as.Call(target);              // [11, 16)
  as.Bind(target);
  as.Ret();
  const std::vector<uint8_t> bytes = as.Finish();
  ASSERT_EQ(bytes.size(), 17u);
  EXPECT_EQ(Decode(bytes.data(), 5).value().insn.imm, 11);
  EXPECT_EQ(Decode(bytes.data() + 5, 6).value().insn.imm, 5);
  EXPECT_EQ(Decode(bytes.data() + 11, 5).value().insn.imm, 0);
}

// One of every position-dependent form: branches and rip-relative operands
// that point outside the code, label branches both ways, and a label's
// absolute address.
constexpr uint64_t kJmpTarget = 0x401000;
constexpr uint64_t kJccTarget = 0x402000;
constexpr uint64_t kCallTarget = 0x403000;
constexpr uint64_t kLeaTarget = 0x600010;
constexpr uint64_t kLoadTarget = 0x600020;
constexpr uint64_t kStoreTarget = 0x600030;
constexpr uint64_t kStoreITarget = 0x600040;

void EmitRelocatableSample(Assembler& as) {
  const MemOperand rip = MemAt(Reg::kRip, 0, 2);
  const auto fwd = as.NewLabel();
  const auto back = as.NewLabel();
  as.Bind(back);
  as.JmpAbs(kJmpTarget);
  as.JccAbs(Cond::kNe, kJccTarget);
  as.CallAbs(kCallTarget);
  as.EmitRipRelative({.op = Op::kLea, .r0 = Reg::kRax, .mem = rip}, kLeaTarget);
  as.EmitRipRelative({.op = Op::kLoad, .r0 = Reg::kRcx, .mem = rip}, kLoadTarget);
  as.EmitRipRelative({.op = Op::kStoreR, .r0 = Reg::kRdx, .mem = rip}, kStoreTarget);
  as.EmitRipRelative({.op = Op::kStoreI, .mem = rip, .imm = 7}, kStoreITarget);
  as.Jcc(Cond::kEq, fwd);
  as.Jmp(back);
  as.MovLabelAddr(Reg::kRbx, fwd);
  as.Bind(fwd);
  as.Call(back);
  as.Ret();
}

TEST(AssemblerRebase, MatchesEmittingAtTheFinalBase) {
  const uint64_t bases[] = {0x10400000, 0x10400000 + 0x1234567, 0x14400000};
  for (const uint64_t from : bases) {
    for (const uint64_t to : bases) {
      Assembler moved(from);
      EmitRelocatableSample(moved);
      moved.Rebase(to);
      Assembler direct(to);
      EmitRelocatableSample(direct);
      EXPECT_EQ(moved.Finish(), direct.Finish())
          << std::hex << "0x" << from << " -> 0x" << to;
    }
  }
}

TEST(AssemblerRebase, ExternalFieldsResolveAtTheFinalBase) {
  constexpr uint64_t kFinal = 0x14400000;
  Assembler as(0x10400000);
  EmitRelocatableSample(as);
  as.Rebase(kFinal);
  const std::vector<uint8_t> bytes = as.Finish();
  // Walk the code, resolving each PC-relative field against the final base.
  std::vector<uint64_t> branch_targets;
  std::vector<uint64_t> mem_targets;
  uint64_t label_addr = 0;
  for (size_t off = 0; off < bytes.size();) {
    Result<Decoded> d = Decode(bytes.data() + off, bytes.size() - off);
    ASSERT_TRUE(d.ok()) << d.error();
    const Instruction& insn = d.value().insn;
    const uint64_t next = kFinal + off + d.value().length;
    if (HasRel32(insn.op)) {
      branch_targets.push_back(next + static_cast<uint64_t>(insn.imm));
    } else if (insn.op == Op::kMovRI) {
      label_addr = static_cast<uint64_t>(insn.imm);
    } else if (insn.mem.rip_relative()) {
      mem_targets.push_back(next + static_cast<uint64_t>(int64_t{insn.mem.disp}));
    }
    off += d.value().length;
  }
  // fwd sits after the 10-byte mov; back is the start of the code.
  const uint64_t fwd = label_addr;
  EXPECT_EQ(branch_targets,
            (std::vector<uint64_t>{kJmpTarget, kJccTarget, kCallTarget, fwd, kFinal, kFinal}));
  EXPECT_EQ(mem_targets,
            (std::vector<uint64_t>{kLeaTarget, kLoadTarget, kStoreTarget, kStoreITarget}));
  EXPECT_EQ(fwd, kFinal + bytes.size() - 6);  // call(5) ret(1) follow the label
}

// A stencil: a Count whose id is a hole, a rip-relative lea whose target
// is recorded per copy, and a label branch resolved inside the code.
void EmitStencilSample(Assembler& as, uint32_t id, uint64_t lea_target) {
  as.Count(id);
  as.EmitRipRelative({.op = Op::kLea, .r0 = Reg::kRax, .mem = MemAt(Reg::kRip, 0)},
                     lea_target);
  const auto skip = as.NewLabel();
  as.Jcc(Cond::kEq, skip);
  as.Nop();
  as.Bind(skip);
}

TEST(AssemblerRebase, AppendedStencilFieldsResolveAtTheFinalBase) {
  Assembler stencil(0x10400000);
  EmitStencilSample(stencil, 0, kLeaTarget);
  const size_t id_field = 1;                             // [op][imm32]
  const size_t lea_field = 5 + MemDispOffset(Op::kLea);  // the lea's disp32, its last field
  const size_t lea_end = lea_field + 4;
  const std::vector<uint8_t> code = stencil.Finish();

  constexpr uint64_t kFinal = 0x14400000;
  const uint64_t targets[] = {kLeaTarget, kLoadTarget, kStoreTarget};
  Assembler as(0x10400000);
  Assembler direct(kFinal);
  as.Nop();
  direct.Nop();
  for (const uint64_t target : targets) {
    const size_t at = as.Append(code.data(), code.size());
    as.Patch32(at + id_field, static_cast<uint32_t>(target));
    as.ExternalRel32(at + lea_field, at + lea_end, target);
    EmitStencilSample(direct, static_cast<uint32_t>(target), target);
  }
  as.Rebase(kFinal);
  const std::vector<uint8_t> bytes = as.Finish();
  EXPECT_EQ(bytes, direct.Finish());
  // Each copy's lea addresses its own target from the final base.
  std::vector<uint64_t> lea_targets;
  std::vector<uint64_t> ids;
  for (size_t off = 0; off < bytes.size();) {
    Result<Decoded> d = Decode(bytes.data() + off, bytes.size() - off);
    ASSERT_TRUE(d.ok()) << d.error();
    const Instruction& insn = d.value().insn;
    if (insn.op == Op::kLea) {
      lea_targets.push_back(kFinal + off + d.value().length +
                            static_cast<uint64_t>(int64_t{insn.mem.disp}));
    } else if (insn.op == Op::kCount) {
      ids.push_back(static_cast<uint64_t>(insn.imm));
    }
    off += d.value().length;
  }
  EXPECT_EQ(lea_targets, std::vector<uint64_t>(std::begin(targets), std::end(targets)));
  EXPECT_EQ(ids, lea_targets);
}

TEST(AssemblerRebase, RangeChecksApplyToTheFinalBase) {
  // 4 GiB away from the target, the jmp cannot be encoded; moved back in
  // range before Finish, it can.
  Assembler as(kJmpTarget + (1ull << 32));
  as.JmpAbs(kJmpTarget);
  as.Rebase(0x10400000);
  const std::vector<uint8_t> bytes = as.Finish();
  EXPECT_EQ(Decode(bytes.data(), bytes.size()).value().insn.imm,
            static_cast<int64_t>(kJmpTarget) - (0x10400000 + 5));
}

TEST(AssemblerDeath, RebaseOutOfRel32RangeChecks) {
  Assembler jmp(0x10400000);
  jmp.JmpAbs(kJmpTarget);
  jmp.Rebase(kJmpTarget + (1ull << 31) + 16);
  EXPECT_DEATH(jmp.Finish(), "CHECK failed");

  Assembler lea(0x10400000);
  lea.EmitRipRelative({.op = Op::kLea, .r0 = Reg::kRax, .mem = MemAt(Reg::kRip, 0)},
                      kLeaTarget);
  lea.Rebase(kLeaTarget + (1ull << 31) + 16);
  EXPECT_DEATH(lea.Finish(), "CHECK failed");
}

TEST(AssemblerDeath, UnboundLabelChecks) {
  Assembler as(0);
  auto l = as.NewLabel();
  as.Jmp(l);
  EXPECT_DEATH(as.Finish(), "CHECK failed");
}

TEST(AssemblerDeath, DoubleBindChecks) {
  Assembler as(0);
  auto l = as.NewLabel();
  as.Bind(l);
  EXPECT_DEATH(as.Bind(l), "CHECK failed");
}

TEST(Image, SerializeRoundTrip) {
  ProgramBuilder pb;
  const uint64_t d = pb.AddDataU64({1, 2, 3});
  (void)d;
  pb.text().MovRI(Reg::kRax, 7);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const std::vector<uint8_t> bytes = img.Serialize();
  Result<BinaryImage> back = BinaryImage::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().entry, img.entry);
  ASSERT_EQ(back.value().sections.size(), img.sections.size());
  for (size_t i = 0; i < img.sections.size(); ++i) {
    EXPECT_EQ(back.value().sections[i].kind, img.sections[i].kind);
    EXPECT_EQ(back.value().sections[i].vaddr, img.sections[i].vaddr);
    EXPECT_EQ(back.value().sections[i].bytes, img.sections[i].bytes);
  }
}

TEST(Image, DeserializeRejectsCorruption) {
  ProgramBuilder pb;
  pb.EmitExit(0);
  std::vector<uint8_t> bytes = pb.Finish().Serialize();
  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(BinaryImage::Deserialize(bad_magic).ok());
  std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + 10);
  EXPECT_FALSE(BinaryImage::Deserialize(truncated).ok());
  std::vector<uint8_t> short_body = bytes;
  short_body.resize(short_body.size() - 1);
  EXPECT_FALSE(BinaryImage::Deserialize(short_body).ok());
}

TEST(Image, FindSectionAndTotals) {
  ProgramBuilder pb;
  pb.AddDataU64({42});
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  EXPECT_NE(img.FindSection(Section::Kind::kText), nullptr);
  EXPECT_NE(img.FindSection(Section::Kind::kData), nullptr);
  EXPECT_EQ(img.FindSection(Section::Kind::kTrampoline), nullptr);
  EXPECT_GT(img.TotalBytes(), 0u);
}

}  // namespace
}  // namespace redfat
