// redfatd — rewrite-as-a-service daemon.
//
//   redfatd --socket=PATH [--jobs=N] [--cache-bytes=N]
//
// Listens on a Unix-domain socket and serves framed rewrite requests (see
// src/serve/protocol.h) with a warm pipeline: per-image analysis retained
// across requests, and a content-addressed artifact cache in front of the
// pipeline. Each connection has its own thread. Clients use
// `redfat --connect=PATH ...`, which transparently falls back to in-process
// rewriting when no daemon answers.
//
// Options:
//   --socket=PATH       socket to listen on (required). An existing live
//                       daemon on PATH is an error; a stale socket file is
//                       replaced.
//   --jobs=N            how many requests may run the pipeline at once
//                       (default 1; 0 = one per hardware thread). Each
//                       rewrite is serial; cache hits never wait.
//   --cache-bytes=N     LRU byte budget of the artifact cache (default
//                       256 MiB; 0 = unbounded). Suffixes K/M/G accepted.
//   --stats-on-exit     print the final stats JSON to stdout after the
//                       shutdown request drains
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/serve/daemon.h"
#include "src/tools/tool_io.h"

namespace redfat {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: redfatd --socket=PATH [--jobs=N] [--cache-bytes=N[K|M|G]]\n"
               "               [--stats-on-exit]\n");
  return 2;
}

// Parses "N", "Nk", "NM", "NG" (case-insensitive) into bytes.
bool ParseByteSize(const std::string& text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) {
    return false;
  }
  uint64_t mult = 1;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': mult = 1ull << 10; break;
      case 'm': case 'M': mult = 1ull << 20; break;
      case 'g': case 'G': mult = 1ull << 30; break;
      default: return false;
    }
    if (end[1] != '\0') {
      return false;
    }
  }
  *out = n * mult;
  return true;
}

int Main(int argc, char** argv) {
  Daemon::Config config;
  bool stats_on_exit = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      config.socket_path = arg.substr(9);
    } else if (arg == "--socket" && i + 1 < argc) {
      config.socket_path = argv[++i];
    } else if (arg.rfind("--jobs=", 0) == 0) {
      uint64_t n = 0;
      if (!ParseUnsignedArg("redfatd", "--jobs", arg.substr(7), &n)) {
        return 2;
      }
      config.service.jobs = static_cast<unsigned>(std::min<uint64_t>(n, UINT_MAX));
    } else if (arg.rfind("--cache-bytes=", 0) == 0) {
      if (!ParseByteSize(arg.substr(14), &config.service.cache_bytes)) {
        return Usage();
      }
    } else if (arg == "--stats-on-exit") {
      stats_on_exit = true;
    } else {
      return Usage();
    }
  }
  if (config.socket_path.empty()) {
    return Usage();
  }

  Daemon daemon(config);
  Status listening = daemon.Listen();
  if (!listening.ok()) {
    std::fprintf(stderr, "redfatd: %s\n", listening.error().c_str());
    return 1;
  }
  std::fprintf(stderr, "redfatd: listening on %s (jobs=%u, cache-bytes=%llu)\n",
               config.socket_path.c_str(), config.service.jobs,
               static_cast<unsigned long long>(config.service.cache_bytes));
  Status served = daemon.Serve();
  if (!served.ok()) {
    std::fprintf(stderr, "redfatd: %s\n", served.error().c_str());
    return 1;
  }
  if (stats_on_exit) {
    std::printf("%s\n", daemon.service().StatsJson().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }
