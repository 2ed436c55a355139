#include "src/tools/tool_io.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/support/str.h"

namespace redfat {

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Error(StrFormat("cannot open %s for reading", path.c_str()));
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) {
    return Error(StrFormat("read error on %s", path.c_str()));
  }
  return bytes;
}

Status WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Error(StrFormat("cannot open %s for writing", path.c_str()));
  }
  const size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool bad = n != bytes.size();
  std::fclose(f);
  if (bad) {
    return Error(StrFormat("short write to %s", path.c_str()));
  }
  return Status::Ok();
}

Result<BinaryImage> LoadImageFile(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return Error(bytes.error());
  }
  return BinaryImage::Deserialize(bytes.value());
}

Status SaveImageFile(const std::string& path, const BinaryImage& image) {
  return WriteFileBytes(path, image.Serialize());
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return Error(bytes.error());
  }
  std::vector<std::string> lines;
  std::string cur;
  for (uint8_t b : bytes.value()) {
    if (b == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(static_cast<char>(b));
    }
  }
  if (!cur.empty()) {
    lines.push_back(cur);
  }
  return lines;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return Status::Ok();
  }
  return WriteFileBytes(path, std::vector<uint8_t>(text.begin(), text.end()));
}

bool TakeUnsigned(const char** s, int base, unsigned long long* out) {
  const unsigned char c = static_cast<unsigned char>(**s);
  if (base == 16 ? !std::isxdigit(c) : !std::isdigit(c)) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(*s, &end, base);
  *s = end;
  return errno != ERANGE;
}

bool ParseUnsignedArg(const char* tool, const char* what, const std::string& text,
                      uint64_t* out) {
  const char* p = text.c_str();
  unsigned long long v = 0;
  if (!TakeUnsigned(&p, 0, &v) || *p != '\0') {
    std::fprintf(stderr, "%s: %s must be an unsigned integer, got '%s'\n", tool, what,
                 text.c_str());
    return false;
  }
  *out = v;
  return true;
}

}  // namespace redfat
