#include "src/serve/protocol.h"

#include <algorithm>
#include <cerrno>
#include <climits>
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

namespace {

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

}  // namespace

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
  pos_ += 4;
  return LoadU32(&body_[pos_ - 4]);
}

Result<uint64_t> BodyReader::U64() {
  if (pos_ + 8 > body_.size()) {
    return Error("frame body: truncated u64");
  }
  pos_ += 8;
  return LoadU64(&body_[pos_ - 8]);
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

std::span<const uint8_t> BodyReader::Rest() {
  const std::span<const uint8_t> rest = body_.subspan(pos_);
  pos_ = body_.size();
  return rest;
}

namespace {

constexpr size_t kFirstBodyChunk = 1 << 20;

// Writes every byte of the iovec array, advancing past short writes. A
// peer that hung up is an error of this connection (EPIPE), never a
// SIGPIPE that ends the whole process.
Status WriteAllV(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = std::min<size_t>(count, IOV_MAX);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Error(StrFormat("socket write: %s", std::strerror(errno)));
    }
    size_t done = static_cast<size_t>(n);
    while (count > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
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

// Reads exactly len bytes into `out`, which grows geometrically as they
// arrive: a declared length alone reserves nothing, and smaller fields land
// in one allocation of their own size.
template <typename Buffer>
Status ReadGrowing(int fd, size_t len, Buffer* out) {
  out->clear();
  while (out->size() < len) {
    const size_t have = out->size();
    out->resize(std::min(len, std::max(kFirstBodyChunk, 2 * have)));
    Result<bool> got = ReadAll(fd, reinterpret_cast<uint8_t*>(out->data()) + have,
                               out->size() - have, /*eof_ok=*/false);
    if (!got.ok()) {
      return Error(got.error());
    }
  }
  return Status::Ok();
}

}  // namespace

Status WriteFrame(int fd, MsgType type, std::initializer_list<BodyPart> parts) {
  size_t body_len = 0;
  for (const BodyPart& part : parts) {
    body_len += part.size();
  }
  if (body_len + 1 > kMaxFramePayload) {
    return Error("frame: payload too large");
  }
  uint8_t header[9];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(kFrameMagic >> (8 * i));
    header[4 + i] = static_cast<uint8_t>((body_len + 1) >> (8 * i));
  }
  header[8] = static_cast<uint8_t>(type);
  std::vector<iovec> iov;
  iov.reserve(parts.size() + 1);
  iov.push_back(iovec{header, sizeof(header)});
  for (const BodyPart& part : parts) {
    if (!part.empty()) {
      iov.push_back(iovec{const_cast<uint8_t*>(part.data()), part.size()});
    }
  }
  return WriteAllV(fd, iov.data(), iov.size());
}

Result<MsgType> FrameReader::Begin() {
  uint8_t header[9];
  Result<bool> got = ReadAll(fd_, header, 8, /*eof_ok=*/true);
  if (!got.ok()) {
    return Error(got.error());
  }
  if (!got.value()) {
    return Error("eof");  // clean close between frames
  }
  const uint32_t magic = LoadU32(header);
  const uint32_t length = LoadU32(header + 4);
  if (magic != kFrameMagic) {
    return Error("frame: bad magic");
  }
  if (length == 0 || length > kMaxFramePayload) {
    return Error(StrFormat("frame: bad length %u", length));
  }
  got = ReadAll(fd_, &header[8], 1, /*eof_ok=*/false);
  if (!got.ok()) {
    return Error(got.error());
  }
  left_ = length - 1;
  return static_cast<MsgType>(header[8]);
}

Error FrameReader::Fail(const char* error) {
  const Status skipped = Skip();
  return Error(skipped.ok() ? error : skipped.error());
}

Status FrameReader::Take(uint8_t* out, size_t len, const char* truncated) {
  if (left_ < len) {
    return Fail(truncated);
  }
  Result<bool> got = ReadAll(fd_, out, len, /*eof_ok=*/false);
  if (!got.ok()) {
    return Error(got.error());
  }
  left_ -= len;
  return Status::Ok();
}

Result<uint8_t> FrameReader::U8() {
  uint8_t v = 0;
  const Status took = Take(&v, 1, "frame body: truncated u8");
  if (!took.ok()) {
    return Error(took.error());
  }
  return v;
}

Result<uint64_t> FrameReader::U64() {
  uint8_t v[8] = {};
  const Status took = Take(v, sizeof(v), "frame body: truncated u64");
  if (!took.ok()) {
    return Error(took.error());
  }
  return LoadU64(v);
}

template <typename Buffer>
Status FrameReader::ReadBlob(Buffer* out) {
  uint8_t prefix[4] = {};
  const Status took = Take(prefix, sizeof(prefix), "frame body: truncated u32");
  if (!took.ok()) {
    return took;
  }
  const uint32_t len = LoadU32(prefix);
  if (len > left_) {
    return Fail("frame body: truncated blob");
  }
  left_ -= len;
  return ReadGrowing(fd_, len, out);
}

Status FrameReader::Blob(std::vector<uint8_t>* out) { return ReadBlob(out); }

Status FrameReader::Blob(std::string* out) { return ReadBlob(out); }

Status FrameReader::Rest(std::vector<uint8_t>* out) {
  const size_t len = left_;
  left_ = 0;
  return ReadGrowing(fd_, len, out);
}

Status FrameReader::Skip() {
  uint8_t sink[4096];
  while (left_ > 0) {
    const size_t n = std::min(left_, sizeof(sink));
    Result<bool> got = ReadAll(fd_, sink, n, /*eof_ok=*/false);
    if (!got.ok()) {
      return Error(got.error());
    }
    left_ -= n;
  }
  return Status::Ok();
}

Result<Frame> ReadFrame(int fd) {
  FrameReader reader(fd);
  Result<MsgType> type = reader.Begin();
  if (!type.ok()) {
    return Error(type.error());
  }
  Frame f;
  f.type = type.value();
  const Status body = reader.Rest(&f.body);
  if (!body.ok()) {
    return Error(body.error());
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
