#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/database.h"
#include "net/wire.h"

namespace perfbench {

/// One kind of request a workload sends. A class has one or more variants
/// (e.g. the key of a point selection); the request sequence picks a class
/// from a shuffled deck and a variant uniformly.
struct RequestClass {
  std::string name;
  /// Copies of this class in one shuffled deck of requests. The deck fixes
  /// each class's share exactly per deck, so p50 and p95 fall on the same
  /// class from seed to seed instead of on a boundary between two.
  int deck_share = 1;
  /// Distinct requests of this class; at least one.
  std::vector<tmdb::WireRequest> variants;
};

/// A traffic mix against one generated database.
struct Workload {
  std::string name;
  /// Loopback connections driving the server (closed loop, one request in
  /// flight per connection).
  int connections = 1;
  std::vector<RequestClass> classes;
};

/// How large to make the generated tables: kFull is what the benchmark
/// measures, kSmall the scaled-down instance the oracle self-test checks
/// against the naive strategy (which is quadratic at full size).
enum class Scale { kFull, kSmall };

/// The workload names run.py accepts. BENCHMARK.json gates nested-olap and
/// auto-spill; short-lookup is run by hand (README.md says why).
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for `seed` and loads its tables into `db`.
/// `nproc` caps connections and per-query threads so busy threads never
/// exceed the host's processors. Unknown names fail with kInvalidArgument.
tmdb::Status MakeWorkload(const std::string& name, uint64_t seed,
                          Scale scale, int nproc, tmdb::Database* db,
                          Workload* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
