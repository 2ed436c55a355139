#include "src/rw/disasm.h"

#include <algorithm>
#include <cstring>

#include "src/support/check.h"
#include "src/support/str.h"

namespace redfat {

size_t Disassembly::IndexAt(uint64_t addr) const {
  const auto it = std::lower_bound(
      insns.begin(), insns.end(), addr,
      [](const DisasmInsn& di, uint64_t a) { return di.addr < a; });
  return it != insns.end() && it->addr == addr ? static_cast<size_t>(it - insns.begin())
                                               : SIZE_MAX;
}

Result<Disassembly> DisassembleText(const BinaryImage& image) {
  const Section* text = image.FindSection(Section::Kind::kText);
  if (text == nullptr) {
    return Error("disasm: image has no text section");
  }
  Disassembly dis;
  dis.text_vaddr = text->vaddr;
  dis.text_end = text->end_vaddr();
  size_t off = 0;
  while (off < text->bytes.size()) {
    Result<Decoded> d = Decode(text->bytes.data() + off, text->bytes.size() - off);
    if (!d.ok()) {
      return Error(StrFormat("disasm at 0x%llx: %s",
                             static_cast<unsigned long long>(text->vaddr + off),
                             d.error().c_str()));
    }
    DisasmInsn di;
    di.addr = text->vaddr + off;
    di.length = d.value().length;
    di.insn = d.value().insn;
    dis.insns.push_back(di);
    off += di.length;
  }
  return dis;
}

CfgInfo RecoverCfg(const Disassembly& dis, const BinaryImage& image) {
  CfgInfo cfg;
  const size_t n = dis.insns.size();
  // (1) Direct branch/call targets and entry.
  cfg.jump_targets.insert(image.entry);
  for (const DisasmInsn& di : dis.insns) {
    if (HasRel32(di.insn.op)) {
      const uint64_t target = di.end() + static_cast<uint64_t>(di.insn.imm);
      if (dis.InText(target)) {
        cfg.jump_targets.insert(target);
      }
      if (di.insn.op == Op::kCall) {
        cfg.jump_targets.insert(di.end());  // return site
      }
    }
    if (di.insn.op == Op::kCallR) {
      cfg.jump_targets.insert(di.end());
    }
    // (2) Code-pointer constants: potential indirect targets.
    if (di.insn.op == Op::kMovRI &&
        dis.InText(static_cast<uint64_t>(di.insn.imm))) {
      cfg.jump_targets.insert(static_cast<uint64_t>(di.insn.imm));
    }
  }
  // (3) Scan data sections for aligned words that look like code pointers.
  for (const Section& s : image.sections) {
    if (s.kind != Section::Kind::kData) {
      continue;
    }
    for (size_t off = 0; off + 8 <= s.bytes.size(); off += 8) {
      uint64_t w = 0;
      std::memcpy(&w, s.bytes.data() + off, 8);
      if (dis.InText(w)) {
        cfg.jump_targets.insert(w);
      }
    }
  }
  // Keep only targets that land on instruction boundaries; a "target" in the
  // middle of an instruction cannot be a real control-flow destination of
  // well-formed code, and treating it as one would forbid every patch.
  cfg.is_jump_target.assign(n, 0);
  for (auto it = cfg.jump_targets.begin(); it != cfg.jump_targets.end();) {
    if (!dis.InText(*it)) {
      ++it;
      continue;
    }
    const size_t index = dis.IndexAt(*it);
    if (index == SIZE_MAX) {
      it = cfg.jump_targets.erase(it);
    } else {
      cfg.is_jump_target[index] = 1;
      ++it;
    }
  }

  // Basic blocks: leaders are jump targets and fallthroughs of terminators.
  cfg.block_id.assign(n, 0);
  uint32_t block = 0;
  bool start_new = true;
  for (size_t i = 0; i < n; ++i) {
    const DisasmInsn& di = dis.insns[i];
    if (start_new || cfg.is_jump_target[i] != 0) {
      ++block;
    }
    cfg.block_id[i] = block;
    start_new = IsControlFlow(di.insn.op);
  }
  cfg.num_blocks = block + 1;
  return cfg;
}

}  // namespace redfat
