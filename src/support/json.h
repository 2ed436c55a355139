// The one JSON reader and the one string escaper.
//
// Metrics snapshots (and the profiles built from them), `--stats` pipeline
// stats and trace files are all read through JsonReader. It streams: the
// caller walks objects and arrays through callbacks and reads each value
// straight into its own fields, so no document tree is built and a hostile
// input costs memory only for the values the caller keeps. Nesting past
// kMaxJsonDepth is an error, integer fields take plain decimal digits that
// must fit the field (no sign, fraction or exponent, never via a double),
// doubles must be finite, and string escapes are decoded. Errors are
// sticky: the first one is kept, every later read returns false, and
// Finish() reports it with its byte offset.
#ifndef REDFAT_SRC_SUPPORT_JSON_H_
#define REDFAT_SRC_SUPPORT_JSON_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/support/result.h"

namespace redfat {

inline constexpr int kMaxJsonDepth = 32;  // our documents nest at most 4 deep

// Escapes '"', '\\' and control characters; every other byte passes through,
// so plain identifiers come out unchanged.
std::string JsonEscape(const std::string& s);

class JsonReader {
 public:
  // kOther is true/false/null or a byte that starts no value.
  enum class Kind { kObject, kArray, kString, kNumber, kOther };

  // Borrows `text`, which must outlive the reader. `what` prefixes errors.
  JsonReader(std::string_view text, const char* what) : s_(text), what_(what) {}

  Kind Peek();

  // Calls on_member(key) for each member in document order; the callback
  // consumes the value (a read below, or Skip) and returns false on error.
  template <typename OnMember>
  bool Object(OnMember&& on_member) {
    Enter('{');  // a failure is recorded, and More() then ends the loop at once
    std::string key;
    for (bool first = true; More('}', &first);) {
      if (!String(&key) || !Expect(':') || !on_member(static_cast<const std::string&>(key))) {
        return Fail("bad value for '" + key + "'");
      }
    }
    return error_.empty();
  }

  template <typename OnElement>
  bool Array(OnElement&& on_element) {
    Enter('[');
    for (bool first = true; More(']', &first);) {
      if (!on_element()) {
        return Fail("bad array element");
      }
    }
    return error_.empty();
  }

  bool String(std::string* out);  // a null `out` only validates
  // Reads a number under the rules of the field's type: any finite value
  // for a double, plain decimal digits that fit for an unsigned integer.
  bool Number(double* out);
  template <typename T>
  bool Number(T* out) {
    static_assert(std::is_unsigned_v<T>);
    uint64_t v = 0;
    if (!Uint(std::numeric_limits<T>::max(), &v)) {
      return false;
    }
    *out = static_cast<T>(v);
    return true;
  }
  // The integer rules applied to an object key (a histogram bucket index).
  bool KeyUint(const std::string& key, uint64_t max, uint64_t* out);
  bool Skip();

  // Keeps `message` unless an error is already recorded; always false.
  bool Fail(const std::string& message);
  // The first error, or trailing data after the value that was read.
  Status Finish();

 private:
  bool Uint(uint64_t max, uint64_t* out);
  void SkipWs();
  bool Expect(char c);
  bool Enter(char open);
  // False (and the container closed) at `close`, else eats ',' between items.
  bool More(char close, bool* first);
  std::string_view NumberToken();
  bool HexQuad(uint32_t* out);

  std::string_view s_;
  const char* what_;
  size_t i_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace redfat

#endif  // REDFAT_SRC_SUPPORT_JSON_H_
