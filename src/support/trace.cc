#include "src/support/trace.h"

#include "src/support/json.h"
#include "src/support/str.h"

namespace redfat {

namespace {

std::string ArgsJson(const std::vector<TraceArg>& args) {
  std::string out = "{";
  for (size_t i = 0; i < args.size(); ++i) {
    out += StrFormat("%s\"%s\":%llu", i == 0 ? "" : ",", JsonEscape(args[i].key).c_str(),
                     static_cast<unsigned long long>(args[i].value));
  }
  out += "}";
  return out;
}

}  // namespace

bool TraceWriter::Admit() {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return false;
  }
  return true;
}

void TraceWriter::SetProcessName(int pid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Admit()) {
    return;
  }
  // Metadata events carry the display name as args[0].key (rendered as the
  // string-valued "name" arg in ToJson, unlike the numeric args elsewhere).
  events_.push_back(
      Event{'M', "process_name", "__metadata", pid, 0, 0, 0, {TraceArg{name, 0}}});
}

void TraceWriter::SetThreadName(int pid, int tid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Admit()) {
    return;
  }
  events_.push_back(
      Event{'M', "thread_name", "__metadata", pid, tid, 0, 0, {TraceArg{name, 0}}});
}

void TraceWriter::Complete(const std::string& name, const std::string& cat, int pid,
                           int tid, double ts_us, double dur_us,
                           std::vector<TraceArg> args) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Admit()) {
    return;
  }
  events_.push_back(Event{'X', name, cat, pid, tid, ts_us, dur_us, std::move(args)});
}

void TraceWriter::Instant(const std::string& name, const std::string& cat, int pid,
                          int tid, double ts_us, std::vector<TraceArg> args) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Admit()) {
    return;
  }
  events_.push_back(Event{'i', name, cat, pid, tid, ts_us, 0, std::move(args)});
}

void TraceWriter::Counter(const std::string& name, int pid, double ts_us,
                          uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Admit()) {
    return;
  }
  events_.push_back(
      Event{'C', name, "counter", pid, 0, ts_us, 0, {TraceArg{"value", value}}});
}

size_t TraceWriter::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

size_t TraceWriter::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string TraceWriter::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (i != 0) {
      out += ",";
    }
    out += StrFormat("{\"ph\":\"%c\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d", e.ph,
                     JsonEscape(e.name).c_str(), e.pid, e.tid);
    if (e.ph == 'M') {
      // Metadata events carry the display name in args.name.
      out += StrFormat(",\"args\":{\"name\":\"%s\"}",
                       JsonEscape(e.args.empty() ? "" : e.args[0].key).c_str());
      out += "}";
      continue;
    }
    out += StrFormat(",\"cat\":\"%s\",\"ts\":%.3f", JsonEscape(e.cat).c_str(), e.ts_us);
    if (e.ph == 'X') {
      out += StrFormat(",\"dur\":%.3f", e.dur_us);
    }
    if (e.ph == 'i') {
      out += ",\"s\":\"t\"";
    }
    if (e.ph == 'C' || !e.args.empty()) {
      out += ",\"args\":" + ArgsJson(e.args);
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

// --- validation ------------------------------------------------------------
//
// A walk over the shared JsonReader, independent of the emitters above so
// a bug in ToJson cannot hide from its own validator. Keys the contract
// does not name are skipped.
namespace {

bool ValidateEvent(JsonReader& r, size_t index) {
  using Kind = JsonReader::Kind;
  if (r.Peek() != Kind::kObject) {
    return r.Fail(StrFormat("event %zu is not an object", index));
  }
  std::string ph;
  bool name = false, pid = false, tid = false, ts = false, dur = false;
  bool args = false;  // a non-empty object
  const auto is = [&r](Kind kind, bool* flag) {
    *flag = r.Peek() == kind;
    return r.Skip();
  };
  const bool walked = r.Object([&](const std::string& key) {
    if (key == "args" && r.Peek() == Kind::kObject) {
      return r.Object([&](const std::string&) {
        args = true;
        return r.Skip();
      });
    }
    return key == "ph" && r.Peek() == Kind::kString ? r.String(&ph)
           : key == "name"                          ? is(Kind::kString, &name)
           : key == "pid"                           ? is(Kind::kNumber, &pid)
           : key == "tid"                           ? is(Kind::kNumber, &tid)
           : key == "ts"                            ? is(Kind::kNumber, &ts)
           : key == "dur"                           ? is(Kind::kNumber, &dur)
                                                    : r.Skip();
  });
  // The first contract rule the event breaks, if any. Metadata events (ph
  // "M") need no timestamp, complete events ("X") a duration, counter
  // events ("C") args.
  const char* bad = ph.size() != 1           ? "ph"
                    : !name                  ? "name"
                    : !pid || !tid           ? "pid/tid"
                    : ph == "M"              ? nullptr
                    : !ts                    ? "ts"
                    : ph == "X" && !dur      ? "dur"
                    : ph == "C" && !args     ? "args"
                                             : nullptr;
  return walked &&
         (bad == nullptr || r.Fail(StrFormat("event %zu: missing/bad \"%s\"", index, bad)));
}

}  // namespace

Status ValidateTraceEventJson(const std::string& json) {
  JsonReader r(json, "trace json");
  bool saw_events = false;
  r.Object([&](const std::string& key) {
    if (key != "traceEvents") {
      return r.Skip();
    }
    saw_events = true;
    size_t index = 0;
    return r.Array([&] { return ValidateEvent(r, index++); });
  });
  if (!saw_events) {
    r.Fail("missing traceEvents array");
  }
  return r.Finish();
}

}  // namespace redfat
