// Chrome trace-event emission (the JSON format chrome://tracing and
// Perfetto load natively).
//
// Producers append events with explicit timestamps in microseconds; the
// repo's convention is that *guest-side* tracks use modeled cycles as the
// microsecond timebase (deterministic across runs), while *rewriter-side*
// tracks use wall-clock milliseconds scaled to microseconds. The writer is
// bounded: past `max_events` further events are counted as dropped rather
// than growing without limit (a multi-billion-cycle run would otherwise
// emit gigabytes). Callers surface dropped() so truncation is never silent.
//
// ValidateTraceEventJson checks that a produced (or foreign) string is
// well-formed trace-event JSON — the guarantee behind "loads cleanly in
// Perfetto" — and is exercised by tests on every emission path.
#ifndef REDFAT_SRC_SUPPORT_TRACE_H_
#define REDFAT_SRC_SUPPORT_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/result.h"

namespace redfat {

struct TraceArg {
  std::string key;
  uint64_t value = 0;
};

class TraceWriter {
 public:
  explicit TraceWriter(size_t max_events = 1 << 16) : max_events_(max_events) {}

  // Metadata: names shown for process/thread tracks in the UI.
  void SetProcessName(int pid, const std::string& name);
  void SetThreadName(int pid, int tid, const std::string& name);

  // A complete slice (ph "X"): something with a beginning and a duration.
  void Complete(const std::string& name, const std::string& cat, int pid, int tid,
                double ts_us, double dur_us, std::vector<TraceArg> args = {});

  // An instant event (ph "i", thread scope): a point-in-time marker.
  void Instant(const std::string& name, const std::string& cat, int pid, int tid,
               double ts_us, std::vector<TraceArg> args = {});

  // A counter sample (ph "C"): renders as a value-over-time track.
  void Counter(const std::string& name, int pid, double ts_us, uint64_t value);

  size_t size() const;
  size_t dropped() const;

  // {"traceEvents":[...],"displayTimeUnit":"ms"} on a single line.
  std::string ToJson() const;

 private:
  struct Event {
    char ph = 'X';
    std::string name;
    std::string cat;
    int pid = 0;
    int tid = 0;
    double ts_us = 0;
    double dur_us = 0;  // ph 'X' only
    std::vector<TraceArg> args;
  };

  bool Admit();  // under mu_: true if the event fits, else counts a drop

  const size_t max_events_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  size_t dropped_ = 0;
};

// Structural validation of trace-event JSON: walks the string with the
// shared JsonReader (support/json.h, so nesting is capped) and checks the
// trace-event contract (a "traceEvents" array of objects; each with string
// "ph"/"name" and numeric "pid"/"tid"/"ts"; "dur" required for ph "X";
// "args" required for ph "C"). Keys the contract does not name are skipped.
Status ValidateTraceEventJson(const std::string& json);

}  // namespace redfat

#endif  // REDFAT_SRC_SUPPORT_TRACE_H_
