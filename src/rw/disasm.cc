#include "src/rw/disasm.h"

#include <algorithm>
#include <cstring>

#include "src/support/check.h"
#include "src/support/parallel.h"
#include "src/support/str.h"

namespace redfat {
namespace {

// Fixed speculative-decode chunk size. The partition depends only on the
// text size — never on the job count — so the stitch (and therefore the
// final instruction list) is identical for every --jobs=N.
constexpr size_t kDisasmChunkBytes = 16 * 1024;

struct ChunkDecode {
  // Instructions decoded speculatively starting at the chunk boundary.
  // The chunk start may fall mid-instruction, in which case this list is
  // garbage until the decode re-synchronizes; the stitch only splices from
  // offsets it has independently reached.
  std::vector<DisasmInsn> insns;
  // First text offset not covered by `insns` (decode stops at the first
  // instruction *starting* at or past the chunk limit, or at a decode
  // failure).
  size_t end_off = 0;
};

Result<Disassembly> DecodeSerial(const Section& text, Disassembly dis) {
  size_t off = 0;
  while (off < text.bytes.size()) {
    Result<Decoded> d = Decode(text.bytes.data() + off, text.bytes.size() - off);
    if (!d.ok()) {
      return Error(StrFormat("disasm at 0x%llx: %s",
                             static_cast<unsigned long long>(text.vaddr + off),
                             d.error().c_str()));
    }
    DisasmInsn di;
    di.addr = text.vaddr + off;
    di.length = d.value().length;
    di.insn = d.value().insn;
    dis.insns.push_back(di);
    off += di.length;
  }
  return dis;
}

}  // namespace

size_t Disassembly::IndexAt(uint64_t addr) const {
  const auto it = std::lower_bound(
      insns.begin(), insns.end(), addr,
      [](const DisasmInsn& di, uint64_t a) { return di.addr < a; });
  return it != insns.end() && it->addr == addr ? static_cast<size_t>(it - insns.begin())
                                               : SIZE_MAX;
}

Result<Disassembly> DisassembleText(const BinaryImage& image, ThreadPool* pool) {
  const Section* text = image.FindSection(Section::Kind::kText);
  if (text == nullptr) {
    return Error("disasm: image has no text section");
  }
  Disassembly dis;
  dis.text_vaddr = text->vaddr;
  dis.text_end = text->end_vaddr();
  const std::vector<uint8_t>& bytes = text->bytes;
  const size_t size = bytes.size();
  const size_t num_chunks = (size + kDisasmChunkBytes - 1) / kDisasmChunkBytes;
  if (pool == nullptr || pool->jobs() <= 1 || num_chunks < 2) {
    return DecodeSerial(*text, std::move(dis));
  }

  // Phase 1 (parallel): decode every fixed-size chunk speculatively from its
  // boundary. Instructions may straddle chunk limits, so each decode sees
  // the full remaining byte count. A decode failure is not reported here:
  // the failing offset may be mid-instruction garbage the real instruction
  // stream never reaches.
  std::vector<ChunkDecode> chunks(num_chunks);
  pool->ParallelFor(num_chunks, [&](size_t c) {
    size_t off = c * kDisasmChunkBytes;
    const size_t limit = std::min(size, (c + 1) * kDisasmChunkBytes);
    ChunkDecode& cd = chunks[c];
    while (off < limit) {
      Result<Decoded> d = Decode(bytes.data() + off, size - off);
      if (!d.ok()) {
        break;
      }
      DisasmInsn di;
      di.addr = text->vaddr + off;
      di.length = d.value().length;
      di.insn = d.value().insn;
      cd.insns.push_back(di);
      off += di.length;
    }
    cd.end_off = off;
  });

  // Phase 2 (serial stitch): walk a cursor exactly as the serial sweep
  // would. Wherever the cursor lands on an offset the speculative decode
  // also reached, splice the rest of that chunk wholesale; otherwise decode
  // one instruction and retry. Decode failures reproduce the serial error
  // verbatim because the cursor follows the identical instruction chain.
  size_t total = 0;
  for (const ChunkDecode& cd : chunks) {
    total += cd.insns.size();
  }
  dis.insns.reserve(total);
  size_t off = 0;
  while (off < size) {
    ChunkDecode& cd = chunks[off / kDisasmChunkBytes];
    const uint64_t addr = text->vaddr + off;
    auto it = std::lower_bound(
        cd.insns.begin(), cd.insns.end(), addr,
        [](const DisasmInsn& di, uint64_t a) { return di.addr < a; });
    if (it != cd.insns.end() && it->addr == addr) {
      dis.insns.insert(dis.insns.end(), it, cd.insns.end());
      off = cd.end_off;
      continue;
    }
    // The speculative decode was out of sync here (or failed): take one
    // serial step and try to re-join at the next boundary.
    Result<Decoded> d = Decode(bytes.data() + off, size - off);
    if (!d.ok()) {
      return Error(StrFormat("disasm at 0x%llx: %s",
                             static_cast<unsigned long long>(addr),
                             d.error().c_str()));
    }
    DisasmInsn di;
    di.addr = addr;
    di.length = d.value().length;
    di.insn = d.value().insn;
    dis.insns.push_back(di);
    off += di.length;
  }
  return dis;
}

namespace {

void CollectInsnTargets(const Disassembly& dis, size_t begin, size_t end,
                        std::vector<uint64_t>* out) {
  for (size_t i = begin; i < end; ++i) {
    const DisasmInsn& di = dis.insns[i];
    if (HasRel32(di.insn.op)) {
      const uint64_t target = di.end() + static_cast<uint64_t>(di.insn.imm);
      if (dis.InText(target)) {
        out->push_back(target);
      }
      if (di.insn.op == Op::kCall) {
        out->push_back(di.end());  // return site
      }
    }
    if (di.insn.op == Op::kCallR) {
      out->push_back(di.end());
    }
    // (2) Code-pointer constants: potential indirect targets.
    if (di.insn.op == Op::kMovRI &&
        dis.InText(static_cast<uint64_t>(di.insn.imm))) {
      out->push_back(static_cast<uint64_t>(di.insn.imm));
    }
  }
}

}  // namespace

CfgInfo RecoverCfg(const Disassembly& dis, const BinaryImage& image,
                   ThreadPool* pool) {
  CfgInfo cfg;
  const size_t n = dis.insns.size();
  const bool parallel = pool != nullptr && pool->jobs() > 1 && n >= 1024;
  // (1) Direct branch/call targets and entry. Set union is insensitive to
  // the order per-range target lists arrive in, so sharding is free.
  cfg.jump_targets.insert(image.entry);
  if (parallel) {
    const size_t ranges = std::min<size_t>(pool->jobs() * 4, n);
    std::vector<std::vector<uint64_t>> found(ranges);
    pool->ParallelFor(ranges, [&](size_t r) {
      CollectInsnTargets(dis, r * n / ranges, (r + 1) * n / ranges, &found[r]);
    });
    for (const std::vector<uint64_t>& targets : found) {
      cfg.jump_targets.insert(targets.begin(), targets.end());
    }
  } else {
    std::vector<uint64_t> targets;
    CollectInsnTargets(dis, 0, n, &targets);
    cfg.jump_targets.insert(targets.begin(), targets.end());
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
  // block_id[i] is the number of leaders in [0, i] — a prefix sum — so the
  // parallel form (per-range leader flags + counts, serial offset pass,
  // per-range fill) is exactly the serial assignment for any job count.
  cfg.block_id.assign(n, 0);
  if (parallel) {
    const size_t ranges = std::min<size_t>(pool->jobs() * 4, n);
    std::vector<uint8_t> leader(n);
    std::vector<uint32_t> leaders_in_range(ranges, 0);
    pool->ParallelFor(ranges, [&](size_t r) {
      const size_t begin = r * n / ranges;
      const size_t end = (r + 1) * n / ranges;
      uint32_t count = 0;
      for (size_t i = begin; i < end; ++i) {
        const bool is_leader = i == 0 ||
                               IsControlFlow(dis.insns[i - 1].insn.op) ||
                               cfg.is_jump_target[i] != 0;
        leader[i] = is_leader ? 1 : 0;
        count += is_leader ? 1u : 0u;
      }
      leaders_in_range[r] = count;
    });
    std::vector<uint32_t> base(ranges, 0);
    uint32_t running = 0;
    for (size_t r = 0; r < ranges; ++r) {
      base[r] = running;
      running += leaders_in_range[r];
    }
    pool->ParallelFor(ranges, [&](size_t r) {
      const size_t begin = r * n / ranges;
      const size_t end = (r + 1) * n / ranges;
      uint32_t block = base[r];
      for (size_t i = begin; i < end; ++i) {
        block += leader[i];
        cfg.block_id[i] = block;
      }
    });
    cfg.num_blocks = running + 1;
  } else {
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
  }
  return cfg;
}

}  // namespace redfat
