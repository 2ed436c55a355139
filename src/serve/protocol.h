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
//
// An image is never copied into a frame buffer. A writer hands WriteFrame
// its body as a list of parts (the encoded fields, then the image from
// wherever it lives), sent with one writev; a reader that knows the layout
// decodes the frame field by field off the socket (FrameReader), so an
// image blob lands directly in its final buffer.
#ifndef REDFAT_SRC_SERVE_PROTOCOL_H_
#define REDFAT_SRC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <initializer_list>
#include <span>
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

// One contiguous piece of a frame body, sent from the caller's memory.
using BodyPart = std::span<const uint8_t>;
inline BodyPart AsPart(const std::string& text) {
  return {reinterpret_cast<const uint8_t*>(text.data()), text.size()};
}

// Bounds-checked forward cursor over a frame body already in memory. Every
// getter fails (rather than reading past the end) on truncated input;
// Done() is true only when the body was consumed exactly.
class BodyReader {
 public:
  explicit BodyReader(std::span<const uint8_t> body) : body_(body) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<std::vector<uint8_t>> Blob();
  Result<std::string> Str();
  // The unread remainder of the body, as a view into it (a request's
  // trailing image is hashed and decoded where it arrived).
  std::span<const uint8_t> Rest();

  bool Done() const { return pos_ == body_.size(); }

 private:
  std::span<const uint8_t> body_;
  size_t pos_ = 0;
};

// --- framed socket I/O -----------------------------------------------------

// Blocking frame write on a connected stream socket: one gathered send of
// the header and every part in order (short writes and EINTR are retried),
// so the body is never copied into a frame buffer. A peer that has hung up
// is an error, not a SIGPIPE. The vector form is the one-part call.
Status WriteFrame(int fd, MsgType type, std::initializer_list<BodyPart> parts);
inline Status WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& body) {
  return WriteFrame(fd, type, {BodyPart(body)});
}

// Streaming counterpart of BodyReader: decodes one frame field by field
// straight off the socket. Every declared length is checked against what
// the frame has left before anything is read or allocated, and a blob's
// buffer grows only as its bytes arrive, so a header that declares 1 GiB
// and then closes costs one 1 MiB chunk. A field that does not fit reads
// and drops the rest of the frame first: a short frame reports the socket
// error, as when the whole frame is read before parsing, and the stream
// stays at a frame boundary. The getters return BodyReader's errors.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  // Reads the header (magic, length, type). Fails with "eof" on a clean
  // close before the frame's first byte, and on bad magic or length.
  Result<MsgType> Begin();

  Result<uint8_t> U8();
  Result<uint64_t> U64();
  // A u32-length-prefixed blob, read into `out` (replacing its contents).
  Status Blob(std::vector<uint8_t>* out);
  Status Blob(std::string* out);
  // Everything the frame has left, read into `out`.
  Status Rest(std::vector<uint8_t>* out);
  // Reads and drops what the frame has left.
  Status Skip();

  bool Done() const { return left_ == 0; }

 private:
  // Skips the rest of the frame, then reports `error` (or the socket's).
  Error Fail(const char* error);
  // Reads `len` bytes of the frame into `out`, or fails with `truncated`
  // when the frame has fewer left.
  Status Take(uint8_t* out, size_t len, const char* truncated);
  template <typename Buffer>
  Status ReadBlob(Buffer* out);

  int fd_;
  size_t left_ = 0;  // body bytes of the frame not read yet
};

// A whole frame: FrameReader::Begin, then the body as one buffer. Returns
// an error for EOF, bad magic, oversized length, or short reads.
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
