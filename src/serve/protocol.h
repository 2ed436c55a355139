// The redfatd wire protocol: length-prefixed binary frames over a
// Unix-domain stream socket.
//
// Every message is one frame:
//
//   u32  magic   'RFD1' (0x31444652 little-endian)
//   u32  length  payload bytes that follow (bounded by kMaxFramePayload)
//   u8   type    MsgType
//   ...  body    type-specific fields, in order
//
// Body fields use fixed-width little-endian integers and u32-length-prefixed
// byte strings ("blobs"). Requests and their kOk reply bodies:
//
//   kRewrite        opts_blob, profile_json (may be empty), image_bytes
//                -> u8 flags (bit0 cache hit, bit1 incremental re-tier),
//                   u64 image_hash, u64 options_fp, u64 profile_fp,
//                   image_bytes, sitemap_text
//   kUploadProfile  u64 image_hash, opts_blob, profile_json
//                -> same reply body as kRewrite
//   kFetchArtifact  u64 image_hash, u64 options_fp, u64 profile_fp
//                -> same reply body as kRewrite (flags bit0 always set)
//   kStats          (empty) -> json_text
//   kShutdown       (empty) -> (empty); the daemon then stops serving
//
// Errors come back as kError frames: u32 code (WireError) + message text.
// A connection that sends an unframeable byte stream (bad magic, oversized
// length, truncated frame) gets a kError/kMalformedFrame reply when one can
// still be written, and the connection is closed; well-framed but invalid
// requests keep the connection open.
#ifndef REDFAT_SRC_SERVE_PROTOCOL_H_
#define REDFAT_SRC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/result.h"

namespace redfat {

inline constexpr uint32_t kFrameMagic = 0x31444652;  // "RFD1"
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

enum class MsgType : uint8_t {
  kRewrite = 1,
  kUploadProfile = 2,
  kFetchArtifact = 3,
  kStats = 4,
  kShutdown = 5,
  kOk = 128,
  kError = 129,
};

enum class WireError : uint32_t {
  kMalformedFrame = 1,   // framing/parse failure; connection will close
  kBadRequest = 2,       // well-framed but semantically invalid
  kNotFound = 3,         // fetch/upload-profile for an unknown cache key
  kRewriteFailed = 4,    // the pipeline rejected the image
  kInternal = 5,
};

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<uint8_t> body;
};

// --- body builders/parsers -------------------------------------------------

void PutU8(std::vector<uint8_t>* out, uint8_t v);
void PutU32(std::vector<uint8_t>* out, uint32_t v);
void PutU64(std::vector<uint8_t>* out, uint64_t v);
// u32 length + raw bytes.
void PutBlob(std::vector<uint8_t>* out, const uint8_t* data, size_t len);
void PutBlob(std::vector<uint8_t>* out, const std::vector<uint8_t>& bytes);
void PutBlob(std::vector<uint8_t>* out, const std::string& text);

// Bounds-checked forward cursor over a frame body. Every getter fails
// (rather than reading past the end) on truncated input; Done() is true
// only when the body was consumed exactly.
class BodyReader {
 public:
  explicit BodyReader(const std::vector<uint8_t>& body) : body_(body) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<std::vector<uint8_t>> Blob();
  Result<std::string> Str();
  // The unread remainder of the body (used for trailing image payloads).
  std::vector<uint8_t> Rest();

  bool Done() const { return pos_ == body_.size(); }

 private:
  const std::vector<uint8_t>& body_;
  size_t pos_ = 0;
};

// --- framed socket I/O -----------------------------------------------------

// Blocking full-frame read/write on a connected stream socket. ReadFrame
// returns an error for EOF, bad magic, oversized length, or short reads,
// and allocates the body only as its bytes arrive (a declared length alone
// reserves nothing); both retry EINTR internally.
Status WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& body);
Result<Frame> ReadFrame(int fd);

// --- Unix-domain socket helpers --------------------------------------------

// Binds and listens on `path`. An existing socket file that still accepts
// connections is an error ("daemon already running"); a stale one is
// unlinked and replaced.
Result<int> ListenUnix(const std::string& path);

// Connects to a listening daemon; fails fast when none is up.
Result<int> ConnectUnix(const std::string& path);

}  // namespace redfat

#endif  // REDFAT_SRC_SERVE_PROTOCOL_H_
