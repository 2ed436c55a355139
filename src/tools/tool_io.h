// Shared file I/O helpers for the command-line tools.
#ifndef REDFAT_SRC_TOOLS_TOOL_IO_H_
#define REDFAT_SRC_TOOLS_TOOL_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/bin/image.h"
#include "src/support/result.h"

namespace redfat {

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);
Status WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes);

Result<BinaryImage> LoadImageFile(const std::string& path);
Status SaveImageFile(const std::string& path, const BinaryImage& image);

// Text-file helpers for allow-lists (one hex address per line, 0x optional)
// and profile dumps ("<site> <passes> <fails>" per line).
Result<std::vector<std::string>> ReadLines(const std::string& path);

// Writes `text` to `path`; the conventional "-" writes to stdout instead.
Status WriteTextFile(const std::string& path, const std::string& text);

// Reads one unsigned integer in strtoull syntax for `base` from the front of
// `*s` (no sign, no leading blank, no overflow) and advances past it. Base
// 16 takes an optional 0x prefix; base 0 reads decimal, 0x hex or 0 octal.
bool TakeUnsigned(const char** s, int base, unsigned long long* out);

// Reads all of `text` as a base-0 unsigned integer into *out. Otherwise
// prints "<tool>: <what> must be an unsigned integer, got '<text>'" to
// stderr and returns false (the tools then exit 2).
bool ParseUnsignedArg(const char* tool, const char* what, const std::string& text,
                      uint64_t* out);

}  // namespace redfat

#endif  // REDFAT_SRC_TOOLS_TOOL_IO_H_
