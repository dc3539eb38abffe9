#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"

namespace perfbench {

/// One benchmark invocation, as parsed from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: the untraced run, reporting the end-to-end metrics.
  /// true: the traced replay, reporting the per-layer metrics.
  bool trace = false;
  /// Directory (created if missing) for the result file, the span dump,
  /// and spill files.
  std::string out_dir = ".bench_build/perfbench-out";
  /// Recorded in the result file; the harness cannot find it itself when
  /// the checkout is not a git repository.
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What the last line of standard output reports.
struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string OutcomeJson(const RunOutcome& outcome);

/// Runs one workload: repeated set-up, reference computation, then the
/// timed closed loop (untraced) or the traced replay. Writes the result
/// file (host record + metrics + per-class breakdown) under out_dir.
tmdb::Status RunBenchmark(const RunConfig& config, RunOutcome* outcome);

/// The benchmark's own test: on scaled-down instances of every workload,
/// each request's reference (serial, unbudgeted, in process) must equal
/// the naive strategy's output and the service's response. Returns the
/// process exit code (0 = pass).
int SelfTest(const std::string& out_dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
