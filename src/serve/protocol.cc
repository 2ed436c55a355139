#include "src/serve/protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/support/str.h"

namespace redfat {

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutBlob(std::vector<uint8_t>* out, const uint8_t* data, size_t len) {
  PutU32(out, static_cast<uint32_t>(len));
  out->insert(out->end(), data, data + len);
}

void PutBlob(std::vector<uint8_t>* out, const std::vector<uint8_t>& bytes) {
  PutBlob(out, bytes.data(), bytes.size());
}

void PutBlob(std::vector<uint8_t>* out, const std::string& text) {
  PutBlob(out, reinterpret_cast<const uint8_t*>(text.data()), text.size());
}

Result<uint8_t> BodyReader::U8() {
  if (pos_ + 1 > body_.size()) {
    return Error("frame body: truncated u8");
  }
  return body_[pos_++];
}

Result<uint32_t> BodyReader::U32() {
  if (pos_ + 4 > body_.size()) {
    return Error("frame body: truncated u32");
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | body_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> BodyReader::U64() {
  if (pos_ + 8 > body_.size()) {
    return Error("frame body: truncated u64");
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | body_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 8;
  return v;
}

Result<std::vector<uint8_t>> BodyReader::Blob() {
  Result<uint32_t> len = U32();
  if (!len.ok()) {
    return Error(len.error());
  }
  if (pos_ + len.value() > body_.size()) {
    return Error("frame body: truncated blob");
  }
  std::vector<uint8_t> out(body_.begin() + static_cast<ptrdiff_t>(pos_),
                           body_.begin() + static_cast<ptrdiff_t>(pos_ + len.value()));
  pos_ += len.value();
  return out;
}

Result<std::string> BodyReader::Str() {
  Result<std::vector<uint8_t>> blob = Blob();
  if (!blob.ok()) {
    return Error(blob.error());
  }
  return std::string(blob.value().begin(), blob.value().end());
}

std::vector<uint8_t> BodyReader::Rest() {
  std::vector<uint8_t> out(body_.begin() + static_cast<ptrdiff_t>(pos_), body_.end());
  pos_ = body_.size();
  return out;
}

namespace {

constexpr size_t kFirstBodyChunk = 1 << 20;

Status WriteAll(int fd, const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Error(StrFormat("socket write: %s", std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// Reads exactly len bytes; eof_ok permits a clean EOF at offset 0 (signalled
// by returning len == 0 read via the out-param).
Result<bool> ReadAll(int fd, uint8_t* data, size_t len, bool eof_ok) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::read(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Error(StrFormat("socket read: %s", std::strerror(errno)));
    }
    if (n == 0) {
      if (eof_ok && off == 0) {
        return false;  // clean EOF before any byte of this frame
      }
      return Error("socket read: unexpected EOF mid-frame");
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Status WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& body) {
  if (body.size() + 1 > kMaxFramePayload) {
    return Error("frame: payload too large");
  }
  std::vector<uint8_t> out;
  out.reserve(9 + body.size());
  PutU32(&out, kFrameMagic);
  PutU32(&out, static_cast<uint32_t>(body.size() + 1));
  PutU8(&out, static_cast<uint8_t>(type));
  out.insert(out.end(), body.begin(), body.end());
  return WriteAll(fd, out.data(), out.size());
}

Result<Frame> ReadFrame(int fd) {
  uint8_t header[8];
  Result<bool> got = ReadAll(fd, header, sizeof(header), /*eof_ok=*/true);
  if (!got.ok()) {
    return Error(got.error());
  }
  if (!got.value()) {
    return Error("eof");  // clean close between frames
  }
  uint32_t magic = 0;
  uint32_t length = 0;
  for (int i = 3; i >= 0; --i) {
    magic = (magic << 8) | header[i];
    length = (length << 8) | header[4 + i];
  }
  if (magic != kFrameMagic) {
    return Error("frame: bad magic");
  }
  if (length == 0 || length > kMaxFramePayload) {
    return Error(StrFormat("frame: bad length %u", length));
  }
  uint8_t type = 0;
  got = ReadAll(fd, &type, 1, /*eof_ok=*/false);
  if (!got.ok()) {
    return Error(got.error());
  }
  Frame f;
  f.type = static_cast<MsgType>(type);
  // The body grows geometrically as bytes arrive, so a header that declares
  // 1 GiB and sends nothing costs one 1 MiB chunk; smaller frames land in
  // one allocation of their own size.
  const size_t body_len = length - 1;
  while (f.body.size() < body_len) {
    const size_t have = f.body.size();
    f.body.resize(std::min(body_len, std::max(kFirstBodyChunk, 2 * have)));
    got = ReadAll(fd, f.body.data() + have, f.body.size() - have, /*eof_ok=*/false);
    if (!got.ok()) {
      return Error(got.error());
    }
  }
  return f;
}

Result<int> ListenUnix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Error(StrFormat("socket path too long (%zu bytes)", path.size()));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // Probe an existing socket file: a live daemon answers the connect — that
  // is an error here, not something to silently replace. Anything else at
  // the path is stale and gets unlinked.
  int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    if (::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      ::close(probe);
      return Error(StrFormat("%s: daemon already listening", path.c_str()));
    }
    ::close(probe);
  }
  ::unlink(path.c_str());

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Error(StrFormat("socket: %s", std::strerror(errno)));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = StrFormat("bind %s: %s", path.c_str(), std::strerror(errno));
    ::close(fd);
    return Error(err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = StrFormat("listen %s: %s", path.c_str(), std::strerror(errno));
    ::close(fd);
    return Error(err);
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Error(StrFormat("socket path too long (%zu bytes)", path.size()));
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Error(StrFormat("socket: %s", std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err =
        StrFormat("connect %s: %s", path.c_str(), std::strerror(errno));
    ::close(fd);
    return Error(err);
  }
  return fd;
}

}  // namespace redfat
