#include "src/serve/client.h"

#include <unistd.h>

#include "src/serve/protocol.h"
#include "src/support/str.h"

namespace redfat {

namespace {

// Decodes a kOk rewrite reply off the socket: the fixed fields, then the
// image blob and the sitemap straight into `reply`.
Status ReadRewriteReply(FrameReader& r, DaemonClient::RewriteReply* reply) {
  Result<uint8_t> flags = r.U8();
  if (!flags.ok()) {
    return Error(flags.error());
  }
  reply->cache_hit = (flags.value() & 1) != 0;
  reply->incremental_retier = (flags.value() & 2) != 0;
  uint64_t* fields[3] = {&reply->key.image_hash, &reply->key.options_fp,
                         &reply->key.profile_fp};
  for (uint64_t* field : fields) {
    Result<uint64_t> v = r.U64();
    if (!v.ok()) {
      return Error(v.error());
    }
    *field = v.value();
  }
  Status blob = r.Blob(&reply->image_bytes);
  if (blob.ok()) {
    blob = r.Blob(&reply->sitemap);
  }
  if (!blob.ok() || r.Done()) {
    return blob;
  }
  const Status skipped = r.Skip();
  return Error(skipped.ok() ? "reply: trailing bytes" : skipped.error());
}

// Decodes a kError frame's body into a readable message.
std::string DecodeWireError(const std::vector<uint8_t>& body) {
  BodyReader r(body);
  Result<uint32_t> code = r.U32();
  Result<std::string> message = code.ok() ? r.Str() : Error(code.error());
  if (!message.ok()) {
    return "daemon error (undecodable)";
  }
  return StrFormat("daemon error %u: %s", code.value(), message.value().c_str());
}

}  // namespace

DaemonClient::~DaemonClient() { Close(); }

Status DaemonClient::Connect(const std::string& socket_path) {
  Close();
  Result<int> fd = ConnectUnix(socket_path);
  if (!fd.ok()) {
    return Error(fd.error());
  }
  fd_ = fd.value();
  return Status::Ok();
}

void DaemonClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<DaemonClient::RewriteReply> DaemonClient::RoundTrip(
    MsgType type, std::initializer_list<BodyPart> body) {
  if (fd_ < 0) {
    return Error("client: not connected");
  }
  Status w = WriteFrame(fd_, type, body);
  if (!w.ok()) {
    return Error(w.error());
  }
  FrameReader r(fd_);
  Result<MsgType> reply_type = r.Begin();
  if (!reply_type.ok()) {
    return Error(reply_type.error());
  }
  if (reply_type.value() == MsgType::kError) {
    std::vector<uint8_t> error;
    const Status read = r.Rest(&error);
    return Error(read.ok() ? DecodeWireError(error) : read.error());
  }
  if (reply_type.value() != MsgType::kOk) {
    const Status skipped = r.Skip();
    return Error(skipped.ok() ? "reply: unexpected frame type" : skipped.error());
  }
  RewriteReply reply;
  const Status read = ReadRewriteReply(r, &reply);
  if (!read.ok()) {
    return Error(read.error());
  }
  return reply;
}

Result<DaemonClient::RewriteReply> DaemonClient::Rewrite(
    const std::vector<uint8_t>& image_bytes, const RedFatOptions& opts,
    const std::string& profile_json) {
  std::vector<uint8_t> head;
  PutBlob(&head, CanonicalOptionsBlob(opts));
  PutU32(&head, static_cast<uint32_t>(profile_json.size()));
  return RoundTrip(MsgType::kRewrite, {head, AsPart(profile_json), image_bytes});
}

Result<DaemonClient::RewriteReply> DaemonClient::UploadProfile(
    uint64_t image_hash, const RedFatOptions& opts, const std::string& profile_json) {
  std::vector<uint8_t> head;
  PutU64(&head, image_hash);
  PutBlob(&head, CanonicalOptionsBlob(opts));
  PutU32(&head, static_cast<uint32_t>(profile_json.size()));
  return RoundTrip(MsgType::kUploadProfile, {head, AsPart(profile_json)});
}

Result<DaemonClient::RewriteReply> DaemonClient::FetchArtifact(const CacheKey& key) {
  std::vector<uint8_t> body;
  PutU64(&body, key.image_hash);
  PutU64(&body, key.options_fp);
  PutU64(&body, key.profile_fp);
  return RoundTrip(MsgType::kFetchArtifact, {body});
}

Result<std::string> DaemonClient::Stats() {
  if (fd_ < 0) {
    return Error("client: not connected");
  }
  Status w = WriteFrame(fd_, MsgType::kStats, {});
  if (!w.ok()) {
    return Error(w.error());
  }
  Result<Frame> reply = ReadFrame(fd_);
  if (!reply.ok()) {
    return Error(reply.error());
  }
  if (reply.value().type == MsgType::kError) {
    return Error(DecodeWireError(reply.value().body));
  }
  BodyReader r(reply.value().body);
  Result<std::string> json = r.Str();
  if (!json.ok()) {
    return Error(json.error());
  }
  return json.value();
}

Status DaemonClient::Shutdown() {
  if (fd_ < 0) {
    return Error("client: not connected");
  }
  Status w = WriteFrame(fd_, MsgType::kShutdown, {});
  if (!w.ok()) {
    return w;
  }
  Result<Frame> reply = ReadFrame(fd_);
  if (!reply.ok()) {
    return Error(reply.error());
  }
  if (reply.value().type != MsgType::kOk) {
    return Error("shutdown: unexpected reply");
  }
  return Status::Ok();
}

}  // namespace redfat
