#include "src/support/json.h"

#include <charconv>
#include <cmath>

#include "src/support/str.h"

namespace redfat {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const unsigned u = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (u >= 0x20) {
      out += ch;
    } else {
      out += ch == '\n' ? "\\n" : ch == '\r' ? "\\r" : ch == '\t' ? "\\t" : StrFormat("\\u%04x", u);
    }
  }
  return out;
}

namespace {

bool ParseUint(std::string_view text, uint64_t max, uint64_t* out) {
  uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v > max) {
    return false;
  }
  *out = v;
  return true;
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
    return;
  }
  const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  // Lead byte: 110xxxxx, 1110xxxx or 11110xxx, then 10xxxxxx per tail byte.
  out->push_back(static_cast<char>(((0xff00 >> (tail + 1)) & 0xff) | (cp >> (6 * tail))));
  for (int k = tail - 1; k >= 0; --k) {
    out->push_back(static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3f)));
  }
}

}  // namespace

bool JsonReader::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = StrFormat("%s: %s at byte %zu", what_, message.c_str(), i_);
  }
  return false;
}

Status JsonReader::Finish() {
  SkipWs();
  if (i_ < s_.size()) {
    Fail("trailing data");
  }
  return error_.empty() ? Status::Ok() : Status(Error(error_));
}

void JsonReader::SkipWs() {
  while (i_ < s_.size() &&
         (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\r' || s_[i_] == '\t')) {
    ++i_;
  }
}

JsonReader::Kind JsonReader::Peek() {
  SkipWs();
  const char c = i_ < s_.size() && error_.empty() ? s_[i_] : '\0';
  switch (c) {
    case '{': return Kind::kObject;
    case '[': return Kind::kArray;
    case '"': return Kind::kString;
    default: return c == '-' || (c >= '0' && c <= '9') ? Kind::kNumber : Kind::kOther;
  }
}

bool JsonReader::Expect(char c) {
  SkipWs();
  if (!error_.empty() || i_ >= s_.size() || s_[i_] != c) {
    return Fail(StrFormat("expected '%c'", c));
  }
  ++i_;
  return true;
}

bool JsonReader::Enter(char open) {
  return Expect(open) &&
         (++depth_ <= kMaxJsonDepth || Fail(StrFormat("nested deeper than %d", kMaxJsonDepth)));
}

bool JsonReader::More(char close, bool* first) {
  SkipWs();
  if (!error_.empty()) {
    return false;
  }
  if (i_ < s_.size() && s_[i_] == close) {
    ++i_;
    --depth_;
    return false;
  }
  const bool more = *first || Expect(',');
  *first = false;
  return more;
}

bool JsonReader::HexQuad(uint32_t* out) {
  const char* p = s_.data() + i_;
  if (s_.size() - i_ < 4 || std::from_chars(p, p + 4, *out, 16).ptr != p + 4) {
    return Fail("bad \\u escape");
  }
  i_ += 4;
  return true;
}

bool JsonReader::String(std::string* out) {
  if (!Expect('"')) {
    return false;
  }
  if (out != nullptr) {
    out->clear();
  }
  while (i_ < s_.size()) {
    const char c = s_[i_++];
    if (c == '"') {
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return Fail("control character in string");
    }
    if (c != '\\') {
      if (out != nullptr) {
        out->push_back(c);
      }
      continue;
    }
    const char esc = i_ < s_.size() ? s_[i_++] : '\0';
    uint32_t cp = 0;
    if (esc == 'u') {
      if (!HexQuad(&cp)) {
        return false;
      }
      if (cp >= 0xd800 && cp < 0xe000) {  // a UTF-16 high surrogate, then a low one
        if (cp >= 0xdc00 || s_.substr(i_, 2) != "\\u") {
          return Fail("unpaired surrogate");
        }
        i_ += 2;
        uint32_t low = 0;
        if (!HexQuad(&low)) {
          return false;
        }
        if (low < 0xdc00 || low >= 0xe000) {
          return Fail("unpaired surrogate");
        }
        cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
      }
    } else {
      constexpr std::string_view kEscapes = "\"\\/bfnrt";
      constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
      const size_t k = kEscapes.find(esc);
      if (k == std::string_view::npos) {
        return Fail("bad escape");
      }
      cp = static_cast<unsigned char>(kDecoded[k]);
    }
    if (out != nullptr) {
      AppendUtf8(cp, out);
    }
  }
  return Fail("unterminated string");
}

std::string_view JsonReader::NumberToken() {
  SkipWs();
  const size_t start = i_;
  while (i_ < s_.size() && std::string_view("+-.eE0123456789").find(s_[i_]) !=
                               std::string_view::npos) {
    ++i_;
  }
  return s_.substr(start, i_ - start);
}

bool JsonReader::Number(double* out) {
  const std::string_view token = NumberToken();
  double v = 0;
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
  if (!error_.empty() || ec != std::errc() || end != token.data() + token.size() ||
      !std::isfinite(v)) {
    return Fail("expected a finite number");
  }
  *out = v;
  return true;
}

bool JsonReader::Uint(uint64_t max, uint64_t* out) {
  return (error_.empty() && ParseUint(NumberToken(), max, out)) ||
         Fail(StrFormat("expected an integer in [0, %llu]", static_cast<unsigned long long>(max)));
}

bool JsonReader::KeyUint(const std::string& key, uint64_t max, uint64_t* out) {
  return ParseUint(key, max, out) ||
         Fail(StrFormat("key '%s' is not an integer in [0, %llu]", key.c_str(),
                        static_cast<unsigned long long>(max)));
}

bool JsonReader::Skip() {
  switch (Peek()) {
    case Kind::kObject:
      return Object([this](const std::string&) { return Skip(); });
    case Kind::kArray:
      return Array([this] { return Skip(); });
    case Kind::kString:
      return String(nullptr);
    case Kind::kNumber: {
      double ignored = 0;
      return Number(&ignored);
    }
    case Kind::kOther:
      for (const std::string_view literal : {"true", "false", "null"}) {
        if (error_.empty() && s_.substr(i_, literal.size()) == literal) {
          i_ += literal.size();
          return true;
        }
      }
  }
  return Fail("expected a value");
}

}  // namespace redfat
