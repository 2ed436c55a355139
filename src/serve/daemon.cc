#include "src/serve/daemon.h"

#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "src/serve/fingerprint.h"
#include "src/serve/protocol.h"
#include "src/support/str.h"

namespace redfat {

namespace {

Status SendError(int fd, WireError code, const std::string& message) {
  std::vector<uint8_t> body;
  PutU32(&body, static_cast<uint32_t>(code));
  PutBlob(&body, message);
  return WriteFrame(fd, MsgType::kError, body);
}

// Maps a service-layer error string onto a wire code: the service reports
// cache lookups that found nothing distinctly from inputs it rejected.
WireError ClassifyServiceError(const std::string& error) {
  if (error.rfind("no warm analysis", 0) == 0 ||
      error.rfind("no cached artifact", 0) == 0) {
    return WireError::kNotFound;
  }
  if (error.rfind("bad image", 0) == 0 || error.rfind("profile:", 0) == 0) {
    return WireError::kBadRequest;
  }
  return WireError::kRewriteFailed;
}

// Writes the reply straight from the shared artifact: only the fixed
// fields and the two blob lengths are encoded here.
Status SendOutcome(int fd, const RewriteService::Outcome& out) {
  const CachedArtifact& artifact = *out.artifact;
  std::vector<uint8_t> head;
  uint8_t flags = 0;
  if (out.cache_hit) {
    flags |= 1;
  }
  if (out.incremental_retier) {
    flags |= 2;
  }
  PutU8(&head, flags);
  PutU64(&head, out.key.image_hash);
  PutU64(&head, out.key.options_fp);
  PutU64(&head, out.key.profile_fp);
  PutU32(&head, static_cast<uint32_t>(artifact.image_bytes.size()));
  std::vector<uint8_t> sitemap_len;
  PutU32(&sitemap_len, static_cast<uint32_t>(artifact.sitemap.size()));
  return WriteFrame(fd, MsgType::kOk,
                    {head, artifact.image_bytes, sitemap_len, AsPart(artifact.sitemap)});
}

}  // namespace

Daemon::Daemon(const Config& config)
    : config_(config), service_(std::make_unique<RewriteService>(config.service)) {}

Daemon::~Daemon() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(config_.socket_path.c_str());
  }
}

Status Daemon::Listen() {
  Result<int> fd = ListenUnix(config_.socket_path);
  if (!fd.ok()) {
    return Error(fd.error());
  }
  listen_fd_ = fd.value();
  return Status::Ok();
}

void Daemon::Stop() {
  stop_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocking accept
  }
}

Status Daemon::Serve() {
  if (listen_fd_ < 0) {
    return Error("daemon: Serve() before Listen()");
  }
  while (!stop_.load(std::memory_order_acquire)) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) {
        break;  // Stop() shut the listener down
      }
      return Error(StrFormat("accept: %s", std::strerror(errno)));
    }
    ReapFinishedHandlers();
    Handler& h = handlers_.emplace_back();
    h.thread = std::thread([this, conn, &h] {
      HandleConnection(conn);
      h.done.store(true, std::memory_order_release);
    });
  }
  for (Handler& h : handlers_) {
    h.thread.join();
  }
  handlers_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(config_.socket_path.c_str());
  return Status::Ok();
}

void Daemon::ReapFinishedHandlers() {
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::HandleConnection(int fd) {
  for (;;) {
    Result<Frame> frame = ReadFrame(fd);
    if (!frame.ok()) {
      // A clean close between frames ends the conversation silently; a
      // malformed byte stream gets one diagnostic frame, then the close
      // (the framing is unrecoverable — resynchronization is impossible).
      if (frame.error() != "eof") {
        (void)SendError(fd, WireError::kMalformedFrame, frame.error());
      }
      break;
    }
    if (!HandleFrame(fd, frame.value())) {
      break;
    }
  }
  ::close(fd);
}

bool Daemon::HandleFrame(int fd, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kRewrite: {
      BodyReader r(frame.body);
      Result<std::vector<uint8_t>> opts_blob = r.Blob();
      if (!opts_blob.ok()) {
        return SendError(fd, WireError::kMalformedFrame, opts_blob.error()).ok();
      }
      Result<std::string> profile_json = r.Str();
      if (!profile_json.ok()) {
        return SendError(fd, WireError::kMalformedFrame, profile_json.error()).ok();
      }
      // The image stays where it arrived: the service hashes it in the
      // frame and decodes it from there on a miss.
      const std::span<const uint8_t> image = r.Rest();
      Result<RedFatOptions> opts = OptionsFromBlob(opts_blob.value());
      if (!opts.ok()) {
        return SendError(fd, WireError::kBadRequest, opts.error()).ok();
      }
      Result<RewriteService::Outcome> out =
          service_->Rewrite(image, opts.value(), profile_json.value());
      if (!out.ok()) {
        return SendError(fd, ClassifyServiceError(out.error()), out.error()).ok();
      }
      return SendOutcome(fd, out.value()).ok();
    }
    case MsgType::kUploadProfile: {
      BodyReader r(frame.body);
      Result<uint64_t> image_hash = r.U64();
      Result<std::vector<uint8_t>> opts_blob =
          image_hash.ok() ? r.Blob() : Error(image_hash.error());
      Result<std::string> profile_json =
          opts_blob.ok() ? r.Str() : Error(opts_blob.error());
      if (!profile_json.ok() || !r.Done()) {
        return SendError(fd, WireError::kMalformedFrame,
                         profile_json.ok() ? "upload-profile: trailing bytes"
                                           : profile_json.error())
            .ok();
      }
      Result<RedFatOptions> opts = OptionsFromBlob(opts_blob.value());
      if (!opts.ok()) {
        return SendError(fd, WireError::kBadRequest, opts.error()).ok();
      }
      Result<RewriteService::Outcome> out = service_->UploadProfile(
          image_hash.value(), opts.value(), profile_json.value());
      if (!out.ok()) {
        return SendError(fd, ClassifyServiceError(out.error()), out.error()).ok();
      }
      return SendOutcome(fd, out.value()).ok();
    }
    case MsgType::kFetchArtifact: {
      BodyReader r(frame.body);
      CacheKey key;
      Result<uint64_t> v = r.U64();
      if (v.ok()) {
        key.image_hash = v.value();
        v = r.U64();
      }
      if (v.ok()) {
        key.options_fp = v.value();
        v = r.U64();
      }
      if (!v.ok() || !r.Done()) {
        return SendError(fd, WireError::kMalformedFrame,
                         v.ok() ? "fetch-artifact: trailing bytes" : v.error())
            .ok();
      }
      key.profile_fp = v.value();
      Result<RewriteService::Outcome> out = service_->FetchArtifact(key);
      if (!out.ok()) {
        return SendError(fd, ClassifyServiceError(out.error()), out.error()).ok();
      }
      return SendOutcome(fd, out.value()).ok();
    }
    case MsgType::kStats: {
      std::vector<uint8_t> body;
      PutBlob(&body, service_->StatsJson());
      return WriteFrame(fd, MsgType::kOk, body).ok();
    }
    case MsgType::kShutdown: {
      (void)WriteFrame(fd, MsgType::kOk, {});
      Stop();
      return false;
    }
    default:
      return SendError(fd, WireError::kBadRequest,
                       StrFormat("unknown request type %u",
                                 static_cast<unsigned>(frame.type)))
          .ok();
  }
}

}  // namespace redfat
