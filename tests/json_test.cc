// Tests for the shared JSON reader (support/json.h) and the three readers
// built on it — TelemetrySnapshotFromJson, PipelineStatsFromJson and
// ValidateTraceEventJson: escape decoding, the integer and depth rules,
// pinned hostile inputs, and a seeded, time-bounded mutation sweep in which
// every call must come back with ok or an error (never a crash, and, in
// the sanitizer build, never undefined behaviour).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"

namespace redfat {
namespace {

// --- the reader --------------------------------------------------------------

TEST(JsonReader, DecodesEveryEscape) {
  const std::string doc =
      "\"q\\\"b\\\\s\\/n\\nr\\rt\\tb\\bf\\f\\u0001\\u00e9\\u20ac\\ud83d\\ude00\"";
  JsonReader r(doc, "test");
  std::string s;
  ASSERT_TRUE(r.String(&s));
  EXPECT_TRUE(r.Finish().ok());
  EXPECT_EQ(s, "q\"b\\s/n\nr\rt\tb\bf\f\x01\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(JsonReader, RejectsBadStrings) {
  for (const char* doc : {"\"open", "\"bad \\x escape\"", "\"\\u12\"", "\"\\u12g4\"",
                          "\"lone \\ud800 high\"", "\"lone \\udc00 low\"",
                          "\"\\ud800\\u0041\"", "\"raw \n newline\""}) {
    JsonReader r(doc, "test");
    EXPECT_FALSE(r.String(nullptr)) << doc;
    EXPECT_FALSE(r.Finish().ok()) << doc;
  }
}

TEST(JsonReader, EscapeRoundTripsEveryByte) {
  std::string all;
  for (int c = 1; c < 256; ++c) {
    all.push_back(static_cast<char>(c));
  }
  all.push_back('\0');
  const std::string doc = "\"" + JsonEscape(all) + "\"";
  JsonReader r(doc, "test");
  std::string back;
  ASSERT_TRUE(r.String(&back));
  EXPECT_TRUE(r.Finish().ok());
  EXPECT_EQ(back, all);
  EXPECT_EQ(JsonEscape("plain.name_1"), "plain.name_1");
}

uint64_t ReadUint(const std::string& doc, bool* ok) {
  JsonReader r(doc, "test");
  uint64_t v = 0;
  *ok = r.Number(&v) && r.Finish().ok();
  return v;
}

TEST(JsonReader, IntegersAreExactAndBounded) {
  bool ok = false;
  EXPECT_EQ(ReadUint("18446744073709551615", &ok), 18446744073709551615ull);
  EXPECT_TRUE(ok);
  EXPECT_EQ(ReadUint("9007199254740993", &ok), 9007199254740993ull);
  EXPECT_TRUE(ok);
  EXPECT_EQ(ReadUint("0", &ok), 0u);
  EXPECT_TRUE(ok);
  for (const char* bad : {"-1", "-0", "1e30", "1E2", "2.5", "1.0", "18446744073709551616",
                          "99999999999999999999999", "+1", "", "\"1\"", "true"}) {
    ReadUint(bad, &ok);
    EXPECT_FALSE(ok) << bad;
  }
  JsonReader narrow("4294967296", "test");
  uint32_t v32 = 0;
  EXPECT_FALSE(narrow.Number(&v32));
}

TEST(JsonReader, DoublesMustBeFiniteNumbers) {
  for (const char* good : {"0", "-0", "2.5", "-1e-3", "1E+20", "1.7976931348623157e308"}) {
    JsonReader r(good, "test");
    double d = 0;
    EXPECT_TRUE(r.Number(&d) && r.Finish().ok()) << good;
  }
  for (const char* bad : {"1e999", "-1e400", "1e", "--1", "0x10", "inf", "nan", "1.5.2", "+",
                          ""}) {
    JsonReader r(bad, "test");
    double d = 0;
    EXPECT_FALSE(r.Number(&d) && r.Finish().ok()) << bad;
  }
}

std::string Nested(size_t depth) { return std::string(depth, '[') + std::string(depth, ']'); }

TEST(JsonReader, NestingIsCappedAtKMaxJsonDepth) {
  const std::string at_cap_doc = Nested(kMaxJsonDepth);
  JsonReader at_cap(at_cap_doc, "test");
  EXPECT_TRUE(at_cap.Skip());
  EXPECT_TRUE(at_cap.Finish().ok());
  const std::string past_cap_doc = Nested(kMaxJsonDepth + 1);
  JsonReader past_cap(past_cap_doc, "test");
  EXPECT_FALSE(past_cap.Skip());
  const Status st = past_cap.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().find("nested deeper"), std::string::npos) << st.error();
}

TEST(JsonReader, WalksObjectsAndSkipsUnknownValues) {
  const std::string doc =
      " { \"keep\" : 7 , \"skip\" : {\"a\":[1,2.5,\"x\",true,false,null,{}]} ,"
      " \"list\" : [ 1 , 2 ] } ";
  JsonReader r(doc, "test");
  uint64_t keep = 0;
  std::vector<uint64_t> list;
  EXPECT_TRUE(r.Object([&](const std::string& key) {
    if (key == "keep") {
      return r.Number(&keep);
    }
    if (key == "list") {
      return r.Array([&] { return r.Number(&list.emplace_back()); });
    }
    return r.Skip();
  }));
  EXPECT_TRUE(r.Finish().ok());
  EXPECT_EQ(keep, 7u);
  EXPECT_EQ(list, (std::vector<uint64_t>{1, 2}));
}

TEST(JsonReader, ErrorsAreStickyAndCarryTheOffset) {
  JsonReader r("{\"a\":1,}", "ctx");
  EXPECT_FALSE(r.Skip());
  EXPECT_FALSE(r.Skip());  // a failed reader reads nothing more
  const Status st = r.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().rfind("ctx: ", 0), 0u) << st.error();
  EXPECT_NE(st.error().find("at byte 7"), std::string::npos) << st.error();

  for (const char* bad : {"", "  ", "{", "[1,]", "[1 2]", "{\"a\"}", "{\"a\":}", "{1:2}",
                          "nul", "tru", "[] []"}) {
    JsonReader each(bad, "test");
    each.Skip();
    EXPECT_FALSE(each.Finish().ok()) << bad;
  }
}

// --- pinned cases through the three document readers -------------------------

TEST(JsonDocuments, IntegerFieldsRejectSignsFractionsExponentsAndOverflow) {
  for (const char* bad : {"-1", "1e30", "2.5", "18446744073709551616"}) {
    const std::string v = bad;
    EXPECT_FALSE(TelemetrySnapshotFromJson("{\"counters\":{\"a\":" + v + "}}").ok()) << v;
    EXPECT_FALSE(TelemetrySnapshotFromJson("{\"gauge_seq\":{\"a\":" + v + "}}").ok()) << v;
    EXPECT_FALSE(TelemetrySnapshotFromJson("{\"sites\":[{\"id\":1,\"checks\":" + v + "}]}").ok())
        << v;
    EXPECT_FALSE(TelemetrySnapshotFromJson("{\"histograms\":{\"h\":{\"sum\":" + v + "}}}").ok())
        << v;
    EXPECT_FALSE(
        PipelineStatsFromJson("{\"passes\":[{\"name\":\"p\",\"items\":" + v + "}]}").ok())
        << v;
    EXPECT_FALSE(PipelineStatsFromJson("{\"jobs\":" + v + "}").ok()) << v;
  }
  EXPECT_FALSE(TelemetrySnapshotFromJson("{\"sites\":[{\"id\":4294967296}]}").ok());
  EXPECT_FALSE(PipelineStatsFromJson("{\"jobs\":4294967296}").ok());
}

TEST(JsonDocuments, LargeCountsReadBackExactly) {
  Result<TelemetrySnapshot> snap = TelemetrySnapshotFromJson(
      "{\"counters\":{\"max\":18446744073709551615,\"odd\":9007199254740993},"
      "\"sites\":[{\"id\":1,\"tramp_cycles\":9007199254740993}]}");
  ASSERT_TRUE(snap.ok()) << snap.error();
  EXPECT_EQ(snap.value().counters.at("max"), 18446744073709551615ull);
  EXPECT_EQ(snap.value().counters.at("odd"), 9007199254740993ull);
  EXPECT_EQ(snap.value().sites.at(0).tramp_cycles(), 9007199254740993ull);
  Result<PipelineStats> stats = PipelineStatsFromJson(
      "{\"passes\":[{\"name\":\"p\",\"cycles_saved\":18446744073709551615}]}");
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().passes.at(0).cycles_saved, 18446744073709551615ull);
}

TEST(JsonDocuments, HistogramBucketIndexMustFitTheFrozenLayout) {
  const auto doc = [](const std::string& index) {
    return "{\"histograms\":{\"h\":{\"sum\":1,\"buckets\":{\"" + index + "\":1}}}}";
  };
  Result<TelemetrySnapshot> last = TelemetrySnapshotFromJson(doc("251"));
  ASSERT_TRUE(last.ok()) << last.error();
  EXPECT_EQ(last.value().histograms.at("h").buckets.count(251), 1u);
  for (const char* bad : {"252", "4294967296", "-1", "+1", "1.0", "x", ""}) {
    EXPECT_FALSE(TelemetrySnapshotFromJson(doc(bad)).ok()) << bad;
  }
}

TEST(JsonDocuments, MegabyteOfOpenBracketsIsAnErrorNotACrash) {
  const std::string brackets(1 << 20, '[');
  EXPECT_FALSE(TelemetrySnapshotFromJson(brackets).ok());
  EXPECT_FALSE(PipelineStatsFromJson(brackets).ok());
  EXPECT_FALSE(ValidateTraceEventJson(brackets).ok());
  // The same run where each reader skips or descends instead of rejecting
  // the root.
  EXPECT_FALSE(ValidateTraceEventJson("{\"other\":" + brackets).ok());
  EXPECT_FALSE(ValidateTraceEventJson("{\"traceEvents\":[{\"args\":" + brackets).ok());
  EXPECT_FALSE(TelemetrySnapshotFromJson("{\"sites\":" + brackets).ok());
  EXPECT_FALSE(PipelineStatsFromJson("{\"passes\":" + brackets).ok());
}

// --- mutation sweep ------------------------------------------------------------

std::string GoldenMetrics() {
  TelemetrySnapshot snap;
  snap.counters = {{"vm.cycles", 123456789}, {"vm.runs", 3}, {"big", 18446744073709551615ull}};
  snap.gauges = {{"lowfat.allocs", 4}, {"ratio", 0.1}};
  snap.gauge_seq = {{"lowfat.allocs", 2}, {"ratio", 1}};
  snap.histograms["heap.malloc_bytes"].sum = 1000;
  snap.histograms["heap.malloc_bytes"].buckets = {{0, 1}, {17, 4}, {251, 1}};
  for (uint32_t id : {0u, 5u, 700u, ImageSiteKey(1, 3)}) {
    SiteTelemetry s;
    s.site = id;
    for (size_t e = 0; e < kNumSiteEvents; ++e) {
      s.counts[e] = id * 10 + e;
    }
    snap.sites.push_back(s);
  }
  return snap.ToJson();
}

std::string GoldenStats() {
  PipelineStats stats;
  stats.jobs = 4;
  stats.total_ms = 12.5;
  stats.passes.push_back(PassStats{"disasm", 100, 0, 1.25, 0, 0});
  stats.passes.push_back(PassStats{"merge", 40, 7, 0.5, 210, 1.25});
  return stats.ToJson();
}

std::string GoldenTrace() {
  TraceWriter trace;
  trace.SetProcessName(1, "guest");
  trace.SetThreadName(1, 1, "vm");
  trace.Complete("tramp", "check", 1, 1, 100.0, 25.0, {TraceArg{"site", 3}});
  trace.Instant("mem_error", "error", 1, 1, 125.0, {TraceArg{"site", 3}});
  trace.Counter("heap.live_objects", 1, 130.0, 17);
  return trace.ToJson();
}

std::string Mutate(Rng& rng, const std::vector<std::string>& goldens) {
  std::string doc = goldens[rng.Below(goldens.size())];
  const uint64_t edits = rng.Range(1, 3);
  for (uint64_t k = 0; k < edits; ++k) {
    const size_t pos = rng.Below(doc.size() + 1);
    switch (rng.Below(5)) {
      case 0:  // byte flip
        if (!doc.empty()) {
          doc[rng.Below(doc.size())] ^= static_cast<char>(1u << rng.Below(8));
        }
        break;
      case 1:  // byte replace, biased to structural and number characters
        if (!doc.empty()) {
          static const char kBytes[] = "{}[]\":,\\-+.eE0123456789u \x01\x7f";
          doc[rng.Below(doc.size())] = kBytes[rng.Below(sizeof(kBytes) - 1)];
        }
        break;
      case 2:  // truncate
        doc.resize(pos);
        break;
      case 3: {  // splice a slice of any golden document in
        const std::string& src = goldens[rng.Below(goldens.size())];
        const size_t from = rng.Below(src.size());
        const size_t len = rng.Below(src.size() - from + 1);
        const size_t cut = rng.Below(doc.size() - pos + 1);
        doc.replace(pos, cut, src, from, len);
        break;
      }
      default: {  // deep nesting
        const size_t depth = rng.Range(1, 4 * kMaxJsonDepth);
        doc.insert(pos, rng.Chance(1, 2) ? std::string(depth, '[') : [&] {
          std::string open;
          for (size_t d = 0; d < depth; ++d) {
            open += "{\"a\":";
          }
          return open;
        }());
        break;
      }
    }
  }
  return doc;
}

TEST(JsonMutation, TenThousandMutantsEndInOkOrError) {
  const std::vector<std::string> goldens = {GoldenMetrics(), GoldenStats(), GoldenTrace()};
  ASSERT_TRUE(TelemetrySnapshotFromJson(goldens[0]).ok());
  ASSERT_TRUE(PipelineStatsFromJson(goldens[1]).ok());
  ASSERT_TRUE(ValidateTraceEventJson(goldens[2]).ok());

  constexpr int kMutants = 10000;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  Rng rng(0x4a534f4e);
  int run = 0;
  int parsed = 0;
  for (; run < kMutants && std::chrono::steady_clock::now() < deadline; ++run) {
    const std::string doc = Mutate(rng, goldens);
    // Whatever the three readers accept must re-serialize to a document
    // they read back to the same values.
    Result<TelemetrySnapshot> snap = TelemetrySnapshotFromJson(doc);
    if (snap.ok()) {
      ++parsed;
      const std::string again = snap.value().ToJson();
      Result<TelemetrySnapshot> back = TelemetrySnapshotFromJson(again);
      ASSERT_TRUE(back.ok()) << back.error() << "\n" << doc;
      EXPECT_EQ(back.value().ToJson(), again) << doc;
    }
    Result<PipelineStats> stats = PipelineStatsFromJson(doc);
    if (stats.ok()) {
      ++parsed;
      const std::string again = stats.value().ToJson();
      Result<PipelineStats> back = PipelineStatsFromJson(again);
      ASSERT_TRUE(back.ok()) << back.error() << "\n" << doc;
      EXPECT_EQ(back.value().ToJson(), again) << doc;
    }
    parsed += ValidateTraceEventJson(doc).ok() ? 1 : 0;
  }
  std::printf("json mutation sweep: %d mutants, %d accepted by a reader\n", run, parsed);
  EXPECT_GE(run, 1000) << "the sweep ran out of time far too early";
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace redfat
