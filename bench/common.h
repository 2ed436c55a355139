// Shared helpers for the experiment harnesses.
#ifndef REDFAT_BENCH_COMMON_H_
#define REDFAT_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/harness.h"
#include "src/core/redfat.h"
#include "src/support/check.h"

namespace redfat {

// Fig. 5 step 1: instrument in profiling mode, run the test suite (train
// inputs), and distill the allow-list.
inline AllowList ProfileAndAllow(const BinaryImage& img, std::vector<uint64_t> train_inputs) {
  RedFatTool prof(RedFatOptions::Profile());
  Result<InstrumentResult> ir = prof.Instrument(img);
  REDFAT_CHECK(ir.ok());
  RunConfig cfg;
  cfg.inputs = std::move(train_inputs);
  cfg.policy = Policy::kLog;
  const RunOutcome out = RunImage(ir.value().image, RuntimeKind::kRedFat, cfg);
  REDFAT_CHECK(out.result.reason == HaltReason::kExit);
  return BuildAllowList(out.prof_counts, ir.value().sites);
}

inline InstrumentResult MustInstrument(const BinaryImage& img, const RedFatOptions& opts,
                                       const AllowList* allow = nullptr) {
  RedFatTool tool(opts);
  Result<InstrumentResult> r = tool.Instrument(img, allow);
  REDFAT_CHECK(r.ok());
  return std::move(r).value();
}

// Aggregates per-pass wall time across instrumentation runs. Each sample is
// consumed through the machine-readable `--stats` JSON (ToJson →
// PipelineStatsFromJson), so the benches exercise the exact format external
// harnesses parse.
class PassTimeAggregator {
 public:
  void Add(const PipelineStats& stats) {
    Result<PipelineStats> parsed = PipelineStatsFromJson(stats.ToJson());
    REDFAT_CHECK(parsed.ok());
    for (const PassStats& p : parsed.value().passes) {
      Row& row = FindOrAdd(p.name);
      row.wall_ms += p.wall_ms;
      row.items += p.items;
      row.changed += p.changed;
    }
    total_ms_ += parsed.value().total_ms;
  }

  void Print(const char* title) const {
    std::printf("\n%s\n", title);
    std::printf("  %-10s %12s %12s %10s\n", "pass", "items", "changed", "wall(ms)");
    for (const Row& row : rows_) {
      std::printf("  %-10s %12zu %12zu %10.2f\n", row.name.c_str(), row.items, row.changed,
                  row.wall_ms);
    }
    std::printf("  %-10s %12s %12s %10.2f\n", "total", "", "", total_ms_);
  }

 private:
  struct Row {
    std::string name;
    size_t items = 0;
    size_t changed = 0;
    double wall_ms = 0.0;
  };
  Row& FindOrAdd(const std::string& name) {
    for (Row& row : rows_) {
      if (row.name == name) {
        return row;
      }
    }
    rows_.push_back(Row{name, 0, 0, 0.0});
    return rows_.back();
  }
  std::vector<Row> rows_;  // in first-seen (pipeline) order
  double total_ms_ = 0.0;
};

// Wall-clock gates. A bench checks them after writing its JSON, so a miss
// still leaves its numbers behind, and returns ExitStatus() from main.
class WallClockGates {
 public:
  explicit WallClockGates(const char* bench) : bench_(bench) {}

  // Records a miss unless `ok`; `what` names the bound and the reading.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "%s: gate missed: %s\n", bench_, what.c_str());
      missed_ = true;
    }
  }

  int ExitStatus() const { return missed_ ? 1 : 0; }

 private:
  const char* bench_;
  bool missed_ = false;
};

inline double Geomean(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double x : xs) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace redfat

#endif  // REDFAT_BENCH_COMMON_H_
