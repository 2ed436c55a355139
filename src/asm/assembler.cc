#include "src/asm/assembler.h"

#include "src/support/check.h"

namespace redfat {

namespace {

void PatchU32(std::vector<uint8_t>* bytes, size_t at, uint32_t v) {
  (*bytes)[at] = static_cast<uint8_t>(v);
  (*bytes)[at + 1] = static_cast<uint8_t>(v >> 8);
  (*bytes)[at + 2] = static_cast<uint8_t>(v >> 16);
  (*bytes)[at + 3] = static_cast<uint8_t>(v >> 24);
}

void PatchU64(std::vector<uint8_t>* bytes, size_t at, uint64_t v) {
  PatchU32(bytes, at, static_cast<uint32_t>(v));
  PatchU32(bytes, at + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t ReadU32(const std::vector<uint8_t>& bytes, size_t at) {
  return static_cast<uint32_t>(bytes[at]) | static_cast<uint32_t>(bytes[at + 1]) << 8 |
         static_cast<uint32_t>(bytes[at + 2]) << 16 | static_cast<uint32_t>(bytes[at + 3]) << 24;
}

}  // namespace

void Assembler::Bind(Label label) {
  REDFAT_CHECK(label < labels_.size());
  LabelState& l = labels_[label];
  REDFAT_CHECK(!l.bound);
  const size_t here = bytes_.size();
  REDFAT_CHECK(here <= INT32_MAX);
  if (l.pos != 0) {
    --waiting_labels_;
  }
  for (size_t link = l.pos; link != 0;) {
    const size_t field = link - 1;
    link = ReadU32(bytes_, field);
    // The rel32 is the last field of its branch: it is anchored 4 bytes on.
    PatchU32(&bytes_, field, static_cast<uint32_t>(here - (field + 4)));
  }
  l = LabelState{static_cast<uint32_t>(here), true};
}

void Assembler::Emit(const Instruction& insn) {
  REDFAT_CHECK(!finished_);
  Encode(insn, &bytes_);
}

void Assembler::EmitBranch(Instruction insn, Label label) {
  REDFAT_CHECK(label < labels_.size());
  insn.imm = 0;
  Emit(insn);
  const size_t end = bytes_.size();
  REDFAT_CHECK(end <= INT32_MAX);
  // rel32 field is the last 4 bytes of kJmp/kJcc/kCall encodings.
  LabelState& l = labels_[label];
  if (l.bound) {
    const int64_t rel = int64_t{l.pos} - static_cast<int64_t>(end);
    PatchU32(&bytes_, end - 4, static_cast<uint32_t>(static_cast<int32_t>(rel)));
    return;
  }
  if (l.pos == 0) {
    ++waiting_labels_;
  }
  PatchU32(&bytes_, end - 4, l.pos);
  l.pos = static_cast<uint32_t>(end - 4 + 1);
}

void Assembler::EmitAbsBranch(Instruction insn, uint64_t target) {
  insn.imm = 0;
  Emit(insn);
  ExternalRel32(bytes_.size() - 4, bytes_.size(), target);
}

void Assembler::EmitRipRelative(const Instruction& insn, uint64_t target) {
  REDFAT_CHECK(insn.mem.rip_relative());
  const size_t start = bytes_.size();
  Emit(insn);
  ExternalRel32(start + MemDispOffset(insn.op), bytes_.size(), target);
}

size_t Assembler::Append(const uint8_t* code, size_t size) {
  REDFAT_CHECK(!finished_);
  const size_t at = bytes_.size();
  bytes_.insert(bytes_.end(), code, code + size);
  return at;
}

void Assembler::Patch32(size_t offset, uint32_t value) {
  REDFAT_CHECK(!finished_ && offset + 4 <= bytes_.size());
  PatchU32(&bytes_, offset, value);
}

void Assembler::ExternalRel32(size_t offset, size_t insn_end, uint64_t target) {
  REDFAT_CHECK(!finished_ && offset + 4 <= insn_end && insn_end <= bytes_.size());
  fixups_.push_back(Fixup{Fixup::Kind::kExtRel32, offset, insn_end, target});
}

void Assembler::MovLabelAddr(Reg r, Label label) {
  REDFAT_CHECK(label < labels_.size());
  const size_t start = bytes_.size();
  MovRI(r, 0);
  // imm64 field is the last 8 bytes of the kMovRI encoding.
  fixups_.push_back(Fixup{Fixup::Kind::kAbs64, start + 2, bytes_.size(), label});
}

std::vector<uint8_t> Assembler::Finish() {
  REDFAT_CHECK(!finished_);
  finished_ = true;
  REDFAT_CHECK(waiting_labels_ == 0);  // a branch to a label that was never bound
  for (const Fixup& f : fixups_) {
    if (f.kind == Fixup::Kind::kAbs64) {
      REDFAT_CHECK(labels_[f.target].bound);
      PatchU64(&bytes_, f.field_offset, base_vaddr_ + labels_[f.target].pos);
      continue;
    }
    const int64_t rel =
        static_cast<int64_t>(f.target) - static_cast<int64_t>(base_vaddr_ + f.insn_end);
    REDFAT_CHECK(rel >= INT32_MIN && rel <= INT32_MAX);
    PatchU32(&bytes_, f.field_offset, static_cast<uint32_t>(static_cast<int32_t>(rel)));
  }
  return std::move(bytes_);
}

}  // namespace redfat
