// Stripped binary image format ("RFBIN").
//
// The moral equivalent of a stripped ELF executable: named-less sections of
// raw bytes at fixed virtual addresses plus an entry point. No symbols, no
// types, no relocations — the rewriter gets exactly what a stripped COTS
// binary would give it.
#ifndef REDFAT_SRC_BIN_IMAGE_H_
#define REDFAT_SRC_BIN_IMAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/support/result.h"

namespace redfat {

struct Section {
  enum class Kind : uint8_t {
    kText = 0,        // executable code, subject to instrumentation
    kData = 1,        // initialized data
    kTrampoline = 2,  // executable code added by a rewriter (never re-instrumented)
    kInlineCheck = 3, // rewriter code for hot-tier (inlined) checks
  };

  Kind kind = Kind::kText;
  uint64_t vaddr = 0;
  std::vector<uint8_t> bytes;

  uint64_t end_vaddr() const { return vaddr + bytes.size(); }
  bool Contains(uint64_t addr) const { return addr >= vaddr && addr < end_vaddr(); }
};

struct BinaryImage {
  uint64_t entry = 0;
  std::vector<Section> sections;

  // First section of the given kind, or nullptr.
  const Section* FindSection(Section::Kind kind) const;
  Section* FindSection(Section::Kind kind);

  // Total bytes across all sections (the "binary size").
  uint64_t TotalBytes() const;

  // The RFBIN bytes, in one allocation of exactly their size.
  std::vector<uint8_t> Serialize() const;
  static Result<BinaryImage> Deserialize(std::span<const uint8_t> bytes);
};

}  // namespace redfat

#endif  // REDFAT_SRC_BIN_IMAGE_H_
