// DaemonClient: the `redfat --connect=SOCK` side of the wire protocol.
// Thin and synchronous — one connected socket, one outstanding request.
// Connection failure is surfaced eagerly from Connect() so the CLI can fall
// back to in-process rewriting without having built a request first.
//
// Neither direction copies an image: a request goes out as frame parts (the
// encoded fields, then the caller's profile text and image bytes), and a
// reply's image blob and sitemap are read off the socket straight into the
// RewriteReply, each declared length checked against the frame first.
#ifndef REDFAT_SRC_SERVE_CLIENT_H_
#define REDFAT_SRC_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/options.h"
#include "src/serve/fingerprint.h"
#include "src/serve/protocol.h"
#include "src/support/result.h"

namespace redfat {

class DaemonClient {
 public:
  DaemonClient() = default;
  ~DaemonClient();

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  // Fails fast when no daemon is listening on `socket_path`.
  Status Connect(const std::string& socket_path);
  bool connected() const { return fd_ >= 0; }
  void Close();

  struct RewriteReply {
    CacheKey key;
    bool cache_hit = false;
    bool incremental_retier = false;
    std::vector<uint8_t> image_bytes;
    std::string sitemap;
  };

  // `image_bytes` are raw serialized RFBIN bytes; `profile_json` may be
  // empty (no tiering). `opts` is canonicalized on the wire via
  // CanonicalOptionsBlob, so client and daemon agree on the fingerprint.
  Result<RewriteReply> Rewrite(const std::vector<uint8_t>& image_bytes,
                               const RedFatOptions& opts,
                               const std::string& profile_json);

  Result<RewriteReply> UploadProfile(uint64_t image_hash, const RedFatOptions& opts,
                                     const std::string& profile_json);

  Result<RewriteReply> FetchArtifact(const CacheKey& key);

  Result<std::string> Stats();

  // Asks the daemon to stop serving. The daemon acknowledges before it
  // begins winding down.
  Status Shutdown();

 private:
  // Sends one frame, its body as parts, and decodes the kOk/kError reply
  // as it arrives; a kError reply is surfaced as "daemon error N: message".
  Result<RewriteReply> RoundTrip(MsgType type, std::initializer_list<BodyPart> body);

  int fd_ = -1;
};

}  // namespace redfat

#endif  // REDFAT_SRC_SERVE_CLIENT_H_
