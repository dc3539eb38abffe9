// Closed-loop service benchmark over the nested-query engine.
//
//   svc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>]
//   svc_bench --self-test [--out-dir <dir>]
//
// Starts an in-process QueryServer at its defaults on an ephemeral port,
// drives it with loopback QueryClients, and prints one JSON object as the
// last line of standard output: the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced replay (--trace 1). Normally run through
// perfbench/run.py, which builds this binary first.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

int Usage(const char* message) {
  std::fprintf(stderr,
               "svc_bench: %s\nusage: svc_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-sha <sha>]\n       svc_bench --self-test "
               "[--out-dir <dir>]\n",
               message);
  return 2;
}

bool ParseUint(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  // CMakeLists.txt refuses unoptimized build types; sanitizer flags can
  // still arrive through CMAKE_CXX_FLAGS, which it cannot see.
  if (kSanitized) return Usage("refusing to measure a sanitizer build");

  perfbench::RunConfig config;
  bool self_test = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    unsigned long long n = 0;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseUint(value, &n)) return Usage("--seed takes an integer");
      config.seed = n;
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ParseUint(value, &n) || n < 1 || n > 120) {
        return Usage("--seconds takes an integer in [1, 120]");
      }
      config.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!ParseUint(value, &n) || n > 1) return Usage("--trace takes 0 or 1");
      config.trace = n == 1;
      have_trace = true;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else if (arg == "--git-sha") {
      config.git_sha = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (self_test) return perfbench::SelfTest(config.out_dir);
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::RunOutcome outcome;
  const tmdb::Status status = perfbench::RunBenchmark(config, &outcome);
  if (!status.ok()) {
    std::fprintf(stderr, "svc_bench: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", perfbench::OutcomeJson(outcome).c_str());
  return 0;
}
