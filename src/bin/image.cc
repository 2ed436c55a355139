#include "src/bin/image.h"

#include <cstring>

#include "src/support/str.h"

namespace redfat {

namespace {

constexpr char kMagic[8] = {'R', 'F', 'B', 'I', 'N', '0', '1', '\0'};

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

bool GetU64(std::span<const uint8_t> in, size_t* pos, uint64_t* v) {
  if (in.size() - *pos < 8) {
    return false;
  }
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(in[*pos + i]) << (8 * i);
  }
  *pos += 8;
  *v = r;
  return true;
}

}  // namespace

const Section* BinaryImage::FindSection(Section::Kind kind) const {
  for (const Section& s : sections) {
    if (s.kind == kind) {
      return &s;
    }
  }
  return nullptr;
}

Section* BinaryImage::FindSection(Section::Kind kind) {
  for (Section& s : sections) {
    if (s.kind == kind) {
      return &s;
    }
  }
  return nullptr;
}

uint64_t BinaryImage::TotalBytes() const {
  uint64_t total = 0;
  for (const Section& s : sections) {
    total += s.bytes.size();
  }
  return total;
}

std::vector<uint8_t> BinaryImage::Serialize() const {
  size_t total = sizeof(kMagic) + 16;
  for (const Section& s : sections) {
    total += 17 + s.bytes.size();
  }
  std::vector<uint8_t> out;
  out.reserve(total);
  for (const char c : kMagic) {
    out.push_back(static_cast<uint8_t>(c));
  }
  PutU64(&out, entry);
  PutU64(&out, sections.size());
  for (const Section& s : sections) {
    out.push_back(static_cast<uint8_t>(s.kind));
    PutU64(&out, s.vaddr);
    PutU64(&out, s.bytes.size());
    out.insert(out.end(), s.bytes.begin(), s.bytes.end());
  }
  return out;
}

Result<BinaryImage> BinaryImage::Deserialize(std::span<const uint8_t> bytes) {
  if (bytes.size() < sizeof(kMagic) || std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Error("image: bad magic");
  }
  size_t pos = sizeof(kMagic);
  BinaryImage img;
  uint64_t num_sections = 0;
  if (!GetU64(bytes, &pos, &img.entry) || !GetU64(bytes, &pos, &num_sections)) {
    return Error("image: truncated header");
  }
  if (num_sections > 1024) {
    return Error("image: implausible section count");
  }
  for (uint64_t i = 0; i < num_sections; ++i) {
    if (pos >= bytes.size()) {
      return Error("image: truncated section header");
    }
    Section s;
    const uint8_t kind = bytes[pos++];
    if (kind > static_cast<uint8_t>(Section::Kind::kInlineCheck)) {
      return Error(StrFormat("image: bad section kind %u", kind));
    }
    s.kind = static_cast<Section::Kind>(kind);
    uint64_t size = 0;
    if (!GetU64(bytes, &pos, &s.vaddr) || !GetU64(bytes, &pos, &size)) {
      return Error("image: truncated section header");
    }
    if (bytes.size() - pos < size) {
      return Error("image: truncated section body");
    }
    s.bytes.assign(bytes.begin() + static_cast<ptrdiff_t>(pos),
                   bytes.begin() + static_cast<ptrdiff_t>(pos + size));
    pos += size;
    img.sections.push_back(std::move(s));
  }
  return img;
}

}  // namespace redfat
