// redfatd's transport: a Unix-domain stream-socket server in front of a
// RewriteService. One handler thread per accepted connection, joined by the
// accept loop once it finishes; a connection carries any number of framed
// requests (serve/protocol.h). The service layer owns all heavy state
// (pipeline slots, caches, telemetry); the daemon only frames/unframes and
// maps service errors onto wire error codes.
#ifndef REDFAT_SRC_SERVE_DAEMON_H_
#define REDFAT_SRC_SERVE_DAEMON_H_

#include <atomic>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "src/serve/service.h"
#include "src/support/result.h"

namespace redfat {

class Daemon {
 public:
  struct Config {
    std::string socket_path;
    RewriteService::Config service;
  };

  explicit Daemon(const Config& config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Binds the socket (fails if a live daemon already owns it). Must be
  // called before Serve().
  Status Listen();

  // Blocking accept loop; returns after a shutdown request (or Stop()).
  // Joins all connection handlers before returning and unlinks the socket.
  Status Serve();

  // Signals the accept loop to stop (callable from any thread / a signal
  // handler path via self-connect).
  void Stop();

  RewriteService& service() { return *service_; }
  const std::string& socket_path() const { return config_.socket_path; }

 private:
  // A connection's thread; it sets `done` as its last act.
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void HandleConnection(int fd);
  // Joins every handler whose connection has ended.
  void ReapFinishedHandlers();
  // True = keep the connection open for more requests.
  bool HandleFrame(int fd, const struct Frame& frame);

  Config config_;
  std::unique_ptr<RewriteService> service_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::list<Handler> handlers_;  // each thread holds its own node
};

}  // namespace redfat

#endif  // REDFAT_SRC_SERVE_DAEMON_H_
