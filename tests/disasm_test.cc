#include <gtest/gtest.h>

#include <cstdint>

#include "src/rw/disasm.h"
#include "src/rw/liveness.h"
#include "src/support/parallel.h"
#include "src/workloads/builder.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

TEST(Disasm, LinearSweepCoversWholeText) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRax, 1);
  as.AddI(Reg::kRax, 2);
  as.Nop();
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  Result<Disassembly> dis = DisassembleText(img);
  ASSERT_TRUE(dis.ok()) << dis.error();
  ASSERT_EQ(dis.value().insns.size(), 5u);
  uint64_t expect = kCodeBase;
  for (const DisasmInsn& di : dis.value().insns) {
    EXPECT_EQ(di.addr, expect);
    expect += di.length;
  }
  EXPECT_EQ(dis.value().IndexAt(kCodeBase), 0u);
  EXPECT_EQ(dis.value().IndexAt(kCodeBase + 1), SIZE_MAX);
}

TEST(Disasm, IndexAtFindsExactlyTheInstructionStarts) {
  // The DeterminismStressTest.LargeTextCrossesDisasmChunks image: > 64 KiB
  // of text, decoded in several chunks by a pool and stitched.
  SynthParams p;
  p.seed = 0xb16;
  p.mem_pct = 40;
  p.block_len = 60;
  p.filler_funcs = 600;
  p.filler_units_per_func = 8;
  const BinaryImage img = GenerateSynthProgram(p);
  ThreadPool pool(2);
  Result<Disassembly> r = DisassembleText(img, &pool);
  ASSERT_TRUE(r.ok()) << r.error();
  const Disassembly& dis = r.value();
  ASSERT_GT(dis.text_end - dis.text_vaddr, 64u * 1024u);
  for (size_t i = 0; i < dis.insns.size(); ++i) {
    const DisasmInsn& di = dis.insns[i];
    ASSERT_EQ(dis.IndexAt(di.addr), i);
    for (uint64_t mid = di.addr + 1; mid < di.end(); ++mid) {
      ASSERT_EQ(dis.IndexAt(mid), SIZE_MAX) << std::hex << mid;
    }
  }
  EXPECT_EQ(dis.IndexAt(0), SIZE_MAX);
  EXPECT_EQ(dis.IndexAt(dis.text_vaddr - 1), SIZE_MAX);
  EXPECT_EQ(dis.IndexAt(dis.text_end), SIZE_MAX);
  EXPECT_EQ(dis.IndexAt(dis.text_end + 1), SIZE_MAX);
  EXPECT_EQ(dis.IndexAt(UINT64_MAX), SIZE_MAX);
}

TEST(Disasm, RejectsGarbage) {
  BinaryImage img;
  img.entry = kCodeBase;
  Section s;
  s.kind = Section::Kind::kText;
  s.vaddr = kCodeBase;
  s.bytes = {0x00, 0x00};
  img.sections.push_back(s);
  EXPECT_FALSE(DisassembleText(img).ok());
}

TEST(Cfg, DirectBranchTargetsRecovered) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto target = as.NewLabel();
  as.Jcc(Cond::kEq, target);
  as.Nop();
  as.Bind(target);
  as.Nop();
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_TRUE(cfg.jump_targets.count(kCodeBase + 7) != 0);  // after jcc+nop
  // Block split at the target: nop@6 and nop@7 are in different blocks.
  EXPECT_NE(cfg.block_id[dis.IndexAt(kCodeBase + 6)],
            cfg.block_id[dis.IndexAt(kCodeBase + 7)]);
}

TEST(Cfg, ControlFlowEndsBlocks) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.Nop();            // block A
  as.Ret();            // block A (terminator)
  as.Nop();            // block B
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_EQ(cfg.block_id[0], cfg.block_id[1]);
  EXPECT_NE(cfg.block_id[1], cfg.block_id[2]);
}

TEST(Cfg, CodePointerConstantsAreTargets) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto fn = as.NewLabel();
  as.MovLabelAddr(Reg::kRax, fn);
  as.JmpR(Reg::kRax);
  as.Bind(fn);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_TRUE(cfg.jump_targets.count(kCodeBase + 12) != 0)
      << "imm64 code pointer must be treated as an indirect target";
}

TEST(Cfg, DataWordsPointingIntoTextAreTargets) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  // Jump table in data: one entry pointing at the exit stub.
  as.Nop();
  const uint64_t stub_addr = as.Here();
  pb.EmitExit(0);
  pb.AddDataU64({stub_addr});
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_TRUE(cfg.jump_targets.count(stub_addr) != 0);
}

TEST(Cfg, MidInstructionDataWordIsIgnored) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRax, 0);  // 10 bytes
  pb.EmitExit(0);
  pb.AddDataU64({kCodeBase + 3});  // points into the middle of the mov
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_EQ(cfg.jump_targets.count(kCodeBase + 3), 0u);
}

TEST(Cfg, CallFallthroughIsTarget) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto fn = as.NewLabel();
  as.Call(fn);
  const uint64_t ret_site = as.Here();
  pb.EmitExit(0);
  as.Bind(fn);
  as.Ret();
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_TRUE(cfg.jump_targets.count(ret_site) != 0);
}

TEST(Liveness, OverwrittenRegisterIsDead) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.Load(Reg::kRax, MemAt(Reg::kRbx, 0));   // index 0: writes rax (dead before)
  as.MovRI(Reg::kRcx, 1);                    // rcx written
  as.Add(Reg::kRax, Reg::kRcx);              // reads both
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  const ClobberInfo ci = ComputeClobbers(dis, cfg, 0);
  // rax is written by insn 0 before any read; rcx written at 1 before read.
  EXPECT_NE(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRax),
            ci.dead_regs.end());
  EXPECT_NE(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRcx),
            ci.dead_regs.end());
  // rbx is read by insn 0: live.
  EXPECT_EQ(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRbx),
            ci.dead_regs.end());
}

TEST(Liveness, FlagsDeadWhenRewrittenBeforeUse) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto l = as.NewLabel();
  as.Store(Reg::kRax, MemAt(Reg::kRbx, 0));  // index 0
  as.CmpI(Reg::kRax, 0);                     // writes flags before any read
  as.Jcc(Cond::kEq, l);
  as.Bind(l);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_TRUE(ComputeClobbers(dis, cfg, 0).flags_dead);
}

TEST(Liveness, FlagsLiveWhenBranchFollows) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto l = as.NewLabel();
  as.CmpI(Reg::kRax, 0);
  as.Store(Reg::kRax, MemAt(Reg::kRbx, 0));  // index 1: flags live across
  as.Jcc(Cond::kEq, l);
  as.Bind(l);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_FALSE(ComputeClobbers(dis, cfg, 1).flags_dead);
}

TEST(Liveness, ConservativeAtBlockEnd) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.Store(Reg::kRax, MemAt(Reg::kRbx, 0));
  pb.EmitExit(0);  // hostcall reads everything
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  const ClobberInfo ci = ComputeClobbers(dis, cfg, 0);
  // rdi is overwritten by EmitExit's mov before the hostcall reads it, so it
  // is dead at the instrumentation point; rax/rbx are read by the store and
  // then by the (conservative) hostcall: live. Flags are never rewritten
  // before the block ends: conservatively live.
  EXPECT_NE(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRdi),
            ci.dead_regs.end());
  EXPECT_EQ(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRax),
            ci.dead_regs.end());
  EXPECT_EQ(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRbx),
            ci.dead_regs.end());
  EXPECT_FALSE(ci.flags_dead);
}

}  // namespace
}  // namespace redfat
