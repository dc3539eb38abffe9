#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "base/random.h"
#include "base/string_util.h"
#include "core/database.h"
#include "exec/executor.h"
#include "net/client.h"
#include "net/server.h"
#include "optimizer/cost_model.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "sema/binder.h"
#include "spill/value_codec.h"
#include "trace.h"
#include "translate/strategies.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tmdb::ClientResult;
using tmdb::Database;
using tmdb::Executor;
using tmdb::QueryClient;
using tmdb::QueryServer;
using tmdb::Result;
using tmdb::Status;
using tmdb::StrCat;
using tmdb::Strategy;
using tmdb::Value;
using tmdb::WireRequest;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// The timed phase runs past --seconds until it holds this many requests,
/// so at least ten samples lie beyond p95.
constexpr size_t kMinTimedSamples = 200;
/// How far past --seconds the timed phase may run to reach the minimum.
constexpr double kMaxExtensionSeconds = 60;

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Resets VmHWM to the current resident set, so a later PeakRssMb covers
/// only what runs after this call.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  return static_cast<bool>(out);
}

/// VmHWM: the process's peak resident set, in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

// ------------------------------------------------------------------ oracle

/// A result's row count plus an order-independent digest: the sum of a
/// mixed structural hash over the rows, so two results with the same rows
/// in any order (and multiplicity) agree.
struct Reference {
  uint64_t rows = 0;
  uint64_t digest = 0;
  bool operator==(const Reference& other) const {
    return rows == other.rows && digest == other.digest;
  }
};

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Reference Digest(const std::vector<Value>& rows) {
  Reference ref;
  ref.rows = rows.size();
  for (const Value& row : rows) ref.digest += Mix(row.Hash());
  return ref;
}

Strategy RequestStrategy(const WireRequest& request) {
  Strategy strategy = Strategy::kNestJoin;  // the server's default
  if (!request.strategy.empty()) {
    tmdb::ParseStrategyName(request.strategy, &strategy);
  }
  return strategy;
}

/// The reference: the request's strategy, in process, serial, unbudgeted.
Result<Reference> ComputeReference(Database* db, const WireRequest& request,
                                   Strategy strategy) {
  tmdb::RunOptions options;
  options.strategy = strategy;
  TMDB_ASSIGN_OR_RETURN(tmdb::QueryResult result,
                        db->Run(request.query, options));
  return Digest(result.rows);
}

// ----------------------------------------------------------------- service

/// One set-up service: generated tables, a server at its defaults, and
/// connected loopback clients. Members are destroyed clients first, then
/// the server, then the tables it serves.
struct Service {
  std::unique_ptr<Database> db;
  Workload workload;
  std::unique_ptr<QueryServer> server;
  std::vector<std::unique_ptr<QueryClient>> clients;
};

/// Data generation and load, server start, connects, and one untimed
/// warm-up pass of every query class on every connection.
Status SetUpService(const std::string& workload, uint64_t seed, Scale scale,
                    int nproc, const std::string& spill_dir, Service* out) {
  out->db = std::make_unique<Database>();
  TMDB_RETURN_IF_ERROR(
      MakeWorkload(workload, seed, scale, nproc, out->db.get(),
                   &out->workload));
  // The defaults examples/query_service runs with; only the spill
  // directory moves, so spill files stay inside the benchmark's tree.
  tmdb::ServerOptions options;
  options.spill_dir = spill_dir;
  out->server = std::make_unique<QueryServer>(out->db.get(), options);
  TMDB_RETURN_IF_ERROR(out->server->Start());
  for (int c = 0; c < out->workload.connections; ++c) {
    auto client = std::make_unique<QueryClient>();
    TMDB_RETURN_IF_ERROR(client->Connect("127.0.0.1", out->server->port()));
    out->clients.push_back(std::move(client));
  }
  for (const std::unique_ptr<QueryClient>& client : out->clients) {
    for (const RequestClass& cls : out->workload.classes) {
      Result<ClientResult> warm = client->Run(cls.variants.front());
      if (!warm.ok()) {
        return Status::Internal(StrCat("warm-up of ", cls.name,
                                       " failed: ", warm.status().ToString()));
      }
    }
  }
  return Status::OK();
}

/// The seeded, fixed request sequence of one connection: classes drawn
/// from a deck holding each class `deck_share` times, reshuffled whenever
/// it runs out; the variant is drawn uniformly. With `cover_first`, the
/// sequence opens with one request of every class in order.
class RequestSequence {
 public:
  RequestSequence(const Workload& workload, uint64_t seed, uint64_t stream,
                  bool cover_first)
      : workload_(workload),
        rng_(Mix(seed) ^ Mix(stream + 0x51ED)),
        cover_next_(cover_first ? 0 : workload.classes.size()) {
    for (size_t c = 0; c < workload.classes.size(); ++c) {
      for (int i = 0; i < workload.classes[c].deck_share; ++i) {
        deck_.push_back(c);
      }
    }
    pos_ = deck_.size();
  }

  /// (class index, variant index) of the next request.
  std::pair<size_t, size_t> Next() {
    if (cover_next_ < workload_.classes.size()) {
      return {cover_next_++, 0};
    }
    if (pos_ == deck_.size()) {
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.Uniform(i)]);
      }
      pos_ = 0;
    }
    const size_t cls = deck_[pos_++];
    return {cls, rng_.Uniform(workload_.classes[cls].variants.size())};
  }

 private:
  const Workload& workload_;
  tmdb::Random rng_;
  size_t cover_next_;
  std::vector<size_t> deck_;
  size_t pos_ = 0;
};

using ReferenceTable = std::vector<std::vector<Reference>>;

Result<ReferenceTable> ComputeReferences(Service* service) {
  ReferenceTable refs;
  for (const RequestClass& cls : service->workload.classes) {
    std::vector<Reference> per_variant;
    for (const WireRequest& request : cls.variants) {
      Result<Reference> ref = ComputeReference(
          service->db.get(), request, RequestStrategy(request));
      if (!ref.ok()) {
        return Status::Internal(StrCat("reference for ", cls.name,
                                       " failed: ", ref.status().ToString()));
      }
      per_variant.push_back(*ref);
    }
    refs.push_back(std::move(per_variant));
  }
  return refs;
}

// ---------------------------------------------------------- traced replay

/// Per-request numbers the traced replay keeps besides its spans.
struct TracedRequest {
  size_t cls = 0;
  double rtt_ms = 0;
  double statement_ms = 0;
  uint64_t response_bytes = 0;
  double exec_cpu_s = 0;
  double exec_wall_s = 0;
  tmdb::ExecStats service_stats;  // what the server reported
  Strategy resolved = Strategy::kNestJoin;
};

/// Replays one request in process through each layer's public entry
/// point, under spans parented to `root`: ParseQuery, Binder::BindQuery,
/// CostModel + ChooseStrategy, PlanForStrategy, Planner::Plan,
/// Executor::RunPhysical with the grant's budget and thread cap, the wire
/// value codec, and an unbudgeted RunPhysical for the stand-down cost.
/// Returns the budgeted replay's rows.
Result<std::vector<Value>> Replay(Database* db, const WireRequest& request,
                                  const ClientResult& served,
                                  const std::string& spill_dir,
                                  Executor* executor, SpanRecorder* spans,
                                  uint64_t id, int64_t root,
                                  TracedRequest* out) {
  const Strategy requested = RequestStrategy(request);
  const bool is_auto = requested == Strategy::kAuto;
  // The server's option derivation (server.cc): thread cap and memory
  // budget are the request's, clamped to the admission grant.
  int threads = std::max<int>(1, static_cast<int>(request.num_threads));
  uint64_t budget = request.memory_budget_bytes;
  if (served.has_grant) {
    threads = std::min<int>(
        threads, static_cast<int>(served.grant.granted_threads));
    const uint64_t granted = served.grant.granted_memory_bytes;
    if (granted != 0 && (budget == 0 || budget > granted)) budget = granted;
  }
  tmdb::PlannerOptions planner_options;
  planner_options.num_threads = threads;
  planner_options.spill_available = request.enable_spill;
  planner_options.enable_columnar = request.enable_columnar;

  Result<std::vector<Value>> rows = Status::Internal("not run");
  tmdb::LogicalOpPtr naive;
  tmdb::StrategyDecision decision;
  Strategy chosen = requested;
  {
    ScopedSpan statement(spans, id, root, "statement");
    const int64_t parent = statement.index();
    const int64_t start = NowNs();
    tmdb::AstPtr ast;
    {
      ScopedSpan span(spans, id, parent, "parser.parse");
      TMDB_ASSIGN_OR_RETURN(ast, tmdb::ParseQuery(request.query));
    }
    {
      ScopedSpan span(spans, id, parent, "sema.bind");
      tmdb::Binder binder(db->catalog());
      TMDB_ASSIGN_OR_RETURN(naive, binder.BindQuery(*ast));
    }
    if (is_auto) {
      // Only auto requests pay for the cost model in the service.
      ScopedSpan span(spans, id, parent, "optimizer.cost");
      tmdb::CostModel model;
      TMDB_ASSIGN_OR_RETURN(decision, tmdb::ChooseStrategy(naive, model));
      chosen = decision.chosen;
    }
    tmdb::LogicalOpPtr plan;
    {
      ScopedSpan span(spans, id, parent, "rewrite.unnest");
      TMDB_ASSIGN_OR_RETURN(plan, tmdb::PlanForStrategy(naive, chosen));
    }
    tmdb::PhysicalOpPtr physical;
    {
      ScopedSpan span(spans, id, parent, "optimizer.plan");
      TMDB_ASSIGN_OR_RETURN(physical,
                            tmdb::Planner(planner_options).Plan(plan));
    }
    {
      ScopedSpan span(spans, id, parent, "exec.run");
      const double cpu0 = CpuSeconds();
      const int64_t wall0 = NowNs();
      tmdb::GuardLimits limits;
      limits.memory_budget_bytes = budget;
      executor->set_num_threads(threads);
      executor->set_limits(limits);
      executor->set_spill_options(request.enable_spill, spill_dir);
      // As Database::RunAuto: a memoized-naive pick runs with the
      // adaptive switch armed and re-plans once if it fires.
      Strategy fallback = Strategy::kNestJoin;
      const bool can_switch = is_auto && decision.costed &&
                              chosen == Strategy::kNaive &&
                              decision.BestUnnested(&fallback);
      if (can_switch) {
        tmdb::AdaptiveConfig adaptive;
        adaptive.predicted_hit_ratio = decision.est_hit_ratio;
        executor->ArmAdaptive(adaptive);
      }
      rows = executor->RunPhysical(physical.get());
      if (!rows.ok() &&
          rows.status().code() == tmdb::StatusCode::kStrategySwitch) {
        chosen = fallback;
        TMDB_ASSIGN_OR_RETURN(plan, tmdb::PlanForStrategy(naive, chosen));
        TMDB_ASSIGN_OR_RETURN(physical,
                              tmdb::Planner(planner_options).Plan(plan));
        rows = executor->RunPhysical(physical.get());
      }
      out->exec_wall_s = static_cast<double>(NowNs() - wall0) * 1e-9;
      out->exec_cpu_s = CpuSeconds() - cpu0;
    }
    out->statement_ms = Ms(NowNs() - start);
  }
  TMDB_RETURN_IF_ERROR(rows.status());
  if (!is_auto) {
    // On a forced strategy the figure is what turning auto on would cost;
    // it runs after the statement, so statement_ms holds only what the
    // server runs.
    ScopedSpan span(spans, id, root, "optimizer.cost");
    tmdb::CostModel model;
    TMDB_RETURN_IF_ERROR(tmdb::ChooseStrategy(naive, model).status());
  }
  out->resolved = chosen;
  {
    ScopedSpan span(spans, id, root, "net.encode");
    std::string wire;
    for (const Value& row : *rows) tmdb::EncodeValue(row, &wire);
    out->response_bytes = wire.size();
  }
  {
    ScopedSpan span(spans, id, root, "exec.unbudgeted");
    tmdb::PlannerOptions unbudgeted_options = planner_options;
    unbudgeted_options.spill_available = false;
    TMDB_ASSIGN_OR_RETURN(tmdb::LogicalOpPtr plan,
                          tmdb::PlanForStrategy(naive, chosen));
    TMDB_ASSIGN_OR_RETURN(tmdb::PhysicalOpPtr physical,
                          tmdb::Planner(unbudgeted_options).Plan(plan));
    executor->set_limits(tmdb::GuardLimits());
    executor->set_spill_options(false);
    TMDB_RETURN_IF_ERROR(executor->RunPhysical(physical.get()).status());
  }
  return rows;
}

// ------------------------------------------------------------ closed loop

struct Sample {
  size_t cls = 0;
  double latency_ms = 0;
  bool ok = false;
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::vector<TracedRequest> traced;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t correct = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
};

struct PhaseOptions {
  double seconds = 10;
  size_t min_samples = 0;
  uint64_t stream = 0;  // separates the request sequences of two phases
  SpanRecorder* spans = nullptr;  // non-null = traced replay
  std::string spill_dir;
};

/// Closed loop: every connection sends its next request only after the
/// previous response's terminator arrived. Runs until `seconds` have
/// passed and `min_samples` requests were made (capped by
/// kMaxExtensionSeconds); in-flight requests finish and count.
PhaseResult RunPhase(Service* service, const ReferenceTable& refs,
                     uint64_t seed, const PhaseOptions& options) {
  const Workload& workload = service->workload;
  const int connections = static_cast<int>(service->clients.size());
  std::atomic<size_t> attempts{0};
  std::mutex merge_mu;
  PhaseResult result;
  const int64_t start = NowNs();
  const int64_t deadline =
      start + static_cast<int64_t>(options.seconds * 1e9);
  const int64_t hard_deadline =
      deadline + static_cast<int64_t>(kMaxExtensionSeconds * 1e9);
  const double cpu_start = CpuSeconds();

  auto client_loop = [&](int c) {
    QueryClient* client = service->clients[static_cast<size_t>(c)].get();
    RequestSequence sequence(workload, seed,
                             options.stream * 64 + static_cast<uint64_t>(c),
                             /*cover_first=*/options.spans != nullptr);
    Executor replay_executor;  // a session-like executor for the replay
    std::vector<Sample> samples;
    std::vector<TracedRequest> traced;
    std::vector<std::string> errors;
    uint64_t correct = 0;
    uint64_t failed = 0;
    for (;;) {
      const int64_t now = NowNs();
      if (now >= hard_deadline) break;
      if (now >= deadline &&
          attempts.load(std::memory_order_relaxed) >= options.min_samples) {
        break;
      }
      const auto [cls, variant] = sequence.Next();
      const WireRequest& request = workload.classes[cls].variants[variant];
      const uint64_t id = (static_cast<uint64_t>(c) << 48) | samples.size();
      const ScopedSpan request_span(options.spans, id, -1, "request");
      const int64_t root = request_span.index();
      Result<ClientResult> served = Status::Internal("not sent");
      const int64_t t0 = NowNs();
      {
        const ScopedSpan rtt_span(options.spans, id, root, "net.rtt");
        served = client->Run(request);
      }
      const int64_t t1 = NowNs();
      attempts.fetch_add(1, std::memory_order_relaxed);
      Sample sample;
      sample.cls = cls;
      sample.latency_ms = Ms(t1 - t0);
      std::string error;
      if (!served.ok()) {
        error = served.status().ToString();
      } else if (!(Digest(served->rows) == refs[cls][variant])) {
        error = StrCat("wrong rows (", served->rows.size(), " vs ",
                       refs[cls][variant].rows, " expected)");
      }
      if (error.empty() && options.spans != nullptr) {
        TracedRequest t;
        t.cls = cls;
        t.rtt_ms = sample.latency_ms;
        t.service_stats = served->stats;
        Result<std::vector<Value>> replayed =
            Replay(service->db.get(), request, *served, options.spill_dir,
                   &replay_executor, options.spans, id, root, &t);
        if (!replayed.ok()) {
          error = StrCat("replay failed: ", replayed.status().ToString());
        } else if (!(Digest(*replayed) == refs[cls][variant])) {
          error = "replay returned wrong rows";
        } else {
          traced.push_back(t);
        }
      }
      sample.ok = error.empty();
      if (sample.ok) {
        ++correct;
      } else {
        ++failed;
        if (errors.size() < 4) {
          errors.push_back(StrCat(workload.classes[cls].name, ": ", error));
        }
        if (!client->connected()) {
          // A wire error poisons the connection; reconnect so the loop
          // keeps measuring instead of failing every later request.
          client->Connect("127.0.0.1", service->server->port());
        }
      }
      samples.push_back(sample);
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    result.samples.insert(result.samples.end(), samples.begin(),
                          samples.end());
    result.traced.insert(result.traced.end(), traced.begin(), traced.end());
    for (std::string& e : errors) {
      if (result.errors.size() < 8) result.errors.push_back(std::move(e));
    }
    result.correct += correct;
    result.failed += failed;
  };

  std::vector<std::thread> threads;
  for (int c = 1; c < connections; ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& t : threads) t.join();
  result.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  result.cpu_s = CpuSeconds() - cpu_start;
  return result;
}

/// Nearest-rank percentile; failed requests count as missing every
/// latency limit (+infinity).
double Percentile(const std::vector<Sample>& samples, double p) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) {
    v.push_back(s.ok ? s.latency_ms : INFINITY);
  }
  if (v.empty()) return INFINITY;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  return v[rank < 1 ? 0 : static_cast<size_t>(rank) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------- reporting

/// Latencies of the correct completions of class `cls`.
std::vector<double> ClassLatencies(const PhaseResult& phase, size_t cls) {
  std::vector<double> lat;
  for (const Sample& s : phase.samples) {
    if (s.cls == cls && s.ok) lat.push_back(s.latency_ms);
  }
  return lat;
}

std::string ClassBreakdownJson(const Workload& workload,
                               const PhaseResult& phase) {
  std::string out = "[";
  for (size_t c = 0; c < workload.classes.size(); ++c) {
    const std::vector<double> lat = ClassLatencies(phase, c);
    double exec_ms = 0;
    uint64_t traced = 0;
    uint64_t spilled = 0;
    std::string resolved;
    for (const TracedRequest& t : phase.traced) {
      if (t.cls != c) continue;
      ++traced;
      exec_ms += t.exec_wall_s * 1e3;
      spilled += t.service_stats.spill_bytes_written;
      resolved = tmdb::StrategyName(t.resolved);
    }
    if (c > 0) out += ", ";
    out += StrCat("{\"class\": ", JsonString(workload.classes[c].name),
                  ", \"deck_share\": ", workload.classes[c].deck_share,
                  ", \"completed\": ", lat.size(),
                  ", \"latency_p50_ms\": ", JsonNumber(Median(lat)));
    if (traced > 0) {
      out += StrCat(", \"traced\": ", traced, ", \"resolved_strategy\": ",
                    JsonString(resolved), ", \"exec_run_ms\": ",
                    JsonNumber(exec_ms / static_cast<double>(traced)),
                    ", \"spill_bytes_written\": ",
                    JsonNumber(static_cast<double>(spilled) /
                               static_cast<double>(traced)));
    }
    out += "}";
  }
  return out + "]";
}

void PrintClassTable(const Workload& workload, const PhaseResult& phase) {
  std::fprintf(stderr, "%-14s %6s %10s\n", "class", "done", "p50_ms");
  for (size_t c = 0; c < workload.classes.size(); ++c) {
    const std::vector<double> lat = ClassLatencies(phase, c);
    std::fprintf(stderr, "%-14s %6zu %10.3f\n",
                 workload.classes[c].name.c_str(), lat.size(), Median(lat));

  }
}

bool IsUnnested(Strategy s) {
  return s != Strategy::kNaive && s != Strategy::kKim && s != Strategy::kAuto;
}

/// The per-layer metrics of the traced phase (means per traced request
/// unless the name says otherwise).
std::vector<Metric> LayerMetrics(const Workload& workload,
                                 const PhaseResult& traced,
                                 const SpanRecorder& spans,
                                 double untraced_p50_ms) {
  const double n = std::max<double>(1, traced.traced.size());
  const std::map<std::string, int64_t> self_ns = spans.SelfNsByName();
  auto layer_ms = [&](const std::string& name) {
    auto it = self_ns.find(name);
    return it == self_ns.end() ? 0.0 : Ms(it->second) / n;
  };
  double rtt = 0, statement = 0, bytes = 0, exec_cpu = 0, exec_wall = 0;
  double rows_built = 0, probes = 0, preds = 0, checkpoints = 0;
  double hits = 0, lookups = 0, morsels = 0, stolen = 0, switches = 0;
  double spill_w = 0, spill_r = 0, spill_parts = 0, spill_depth = 0;
  std::vector<double> rtts;
  std::vector<std::map<Strategy, int>> resolved(workload.classes.size());
  for (const TracedRequest& t : traced.traced) {
    const tmdb::ExecStats& s = t.service_stats;
    rtt += t.rtt_ms;
    rtts.push_back(t.rtt_ms);
    statement += t.statement_ms;
    bytes += static_cast<double>(t.response_bytes);
    exec_cpu += t.exec_cpu_s;
    exec_wall += t.exec_wall_s;
    rows_built += static_cast<double>(s.rows_built);
    probes += static_cast<double>(s.hash_probes);
    preds += static_cast<double>(s.predicate_evals);
    checkpoints += static_cast<double>(s.guard_checkpoints);
    hits += static_cast<double>(s.subplan_cache_hits);
    lookups +=
        static_cast<double>(s.subplan_cache_hits + s.subplan_cache_misses);
    morsels += static_cast<double>(s.morsels_dispatched);
    stolen += static_cast<double>(s.morsels_stolen);
    switches += static_cast<double>(s.strategy_switches);
    spill_w += static_cast<double>(s.spill_bytes_written);
    spill_r += static_cast<double>(s.spill_bytes_read);
    spill_parts += static_cast<double>(s.spill_partitions);
    spill_depth = std::max(spill_depth, static_cast<double>(s.spill_max_depth));
    ++resolved[t.cls][t.resolved];
  }
  double naive_classes = 0, unnested_classes = 0;
  for (const std::map<Strategy, int>& votes : resolved) {
    if (votes.empty()) continue;
    const Strategy majority =
        std::max_element(votes.begin(), votes.end(),
                         [](const auto& a, const auto& b) {
                           return a.second < b.second;
                         })
            ->first;
    if (majority == Strategy::kNaive) ++naive_classes;
    if (IsUnnested(majority)) ++unnested_classes;
  }
  const double exec_run = layer_ms("exec.run");
  return {
      {"net.rtt_ms", rtt / n, "ms"},
      {"net.service_overhead_ms", (rtt - statement) / n, "ms"},
      {"net.encode_ms", layer_ms("net.encode"), "ms"},
      {"net.response_bytes", bytes / n, "bytes"},
      {"parser.parse_ms", layer_ms("parser.parse"), "ms"},
      {"sema.bind_ms", layer_ms("sema.bind"), "ms"},
      {"rewrite.unnest_ms", layer_ms("rewrite.unnest"), "ms"},
      {"optimizer.plan_ms", layer_ms("optimizer.plan"), "ms"},
      {"optimizer.cost_ms", layer_ms("optimizer.cost"), "ms"},
      {"optimizer.switches_per_query", switches / n, "count"},
      {"optimizer.naive_classes", naive_classes, "count"},
      {"optimizer.unnested_classes", unnested_classes, "count"},
      {"exec.run_ms", exec_run, "ms"},
      {"exec.standdown_ms", exec_run - layer_ms("exec.unbudgeted"), "ms"},
      {"exec.rows_built", rows_built / n, "count"},
      {"exec.hash_probes", probes / n, "count"},
      {"exec.predicate_evals", preds / n, "count"},
      {"exec.guard_checkpoints", checkpoints / n, "count"},
      {"exec.subplan_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio"},
      {"sched.morsels", morsels / n, "count"},
      {"sched.steal_frac", morsels > 0 ? stolen / morsels : 0, "ratio"},
      {"sched.cpu_per_wall", exec_wall > 0 ? exec_cpu / exec_wall : 0,
       "ratio"},
      {"spill.bytes_written", spill_w / n, "bytes"},
      {"spill.bytes_read", spill_r / n, "bytes"},
      {"spill.partitions", spill_parts / n, "count"},
      {"spill.max_depth", spill_depth, "count"},
      {"trace.rtt_ratio",
       untraced_p50_ms > 0 ? Median(rtts) / untraced_p50_ms : 0, "ratio"},
  };
}

std::string HostJson(const RunConfig& config, int nproc) {
  return StrCat("{\"git_sha\": ", JsonString(config.git_sha),
                ", \"build_type\": ", JsonString(PERFBENCH_BUILD_TYPE),
                ", \"compiler\": ", JsonString(PERFBENCH_COMPILER),
                ", \"nproc\": ", nproc, ", \"cpu_model\": ",
                JsonString(CpuModel()), ", \"seed\": ", config.seed, "}");
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrCat(JsonString(metrics[i].name), ": {\"value\": ",
                  JsonNumber(metrics[i].value), ", \"unit\": ",
                  JsonString(metrics[i].unit), "}");
  }
  return out + "}";
}

Status WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  out << body << "\n";
  out.close();
  if (!out) return Status::IoError(StrCat("cannot write ", path));
  return Status::OK();
}

}  // namespace

std::string OutcomeJson(const RunOutcome& outcome) {
  return StrCat("{\"correct\": ", outcome.correct ? "true" : "false",
                ", \"attempted\": ", outcome.attempted,
                ", \"failed\": ", outcome.failed,
                ", \"metrics\": ", MetricsJson(outcome.metrics), "}");
}

Status RunBenchmark(const RunConfig& config, RunOutcome* outcome) {
  namespace fs = std::filesystem;
  const int nproc = Nproc();
  const fs::path out_dir(config.out_dir);
  const std::string spill_dir = (out_dir / "spill").string();
  std::error_code ec;
  fs::create_directories(out_dir / "spill", ec);
  fs::create_directories(out_dir / "results", ec);
  fs::create_directories(out_dir / "traces", ec);
  if (ec) return Status::IoError(StrCat("cannot create ", config.out_dir));

  // --- set-up, repeated; setup_s is the median
  const int setups = config.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Service> service;
  for (int i = 0; i < setups; ++i) {
    service.reset();  // tears the previous set-up down before timing anew
    service = std::make_unique<Service>();
    const int64_t t0 = NowNs();
    TMDB_RETURN_IF_ERROR(SetUpService(config.workload, config.seed,
                                      Scale::kFull, nproc, spill_dir,
                                      service.get()));
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const Workload& workload = service->workload;
  std::fprintf(stderr, "%s seed %llu: %d connection(s), set-up %.3f s\n",
               workload.name.c_str(),
               static_cast<unsigned long long>(config.seed),
               workload.connections, Median(setup_s));

  // --- references, before anything is timed
  TMDB_ASSIGN_OR_RETURN(ReferenceTable refs, ComputeReferences(service.get()));

  PhaseOptions phase;
  phase.spill_dir = spill_dir;
  std::vector<Metric> metrics;
  PhaseResult measured;
  SpanRecorder spans;
  if (!config.trace) {
    phase.seconds = config.seconds;
    phase.min_samples = kMinTimedSamples;
    // peak_rss_mb covers the timed phase only, not the set-ups or the
    // unbudgeted reference runs.
    if (!ResetPeakRss()) {
      return Status::IoError("cannot reset the peak RSS (clear_refs)");
    }
    measured = RunPhase(service.get(), refs, config.seed, phase);
    if (measured.samples.size() < kMinTimedSamples) {
      return Status::Internal(StrCat(
          "only ", measured.samples.size(), " timed requests; latency_p95_ms "
          "needs at least ", kMinTimedSamples));
    }
    const double attempts = static_cast<double>(measured.samples.size());
    const double completed = static_cast<double>(measured.correct);
    metrics = {
        {"qps", completed / measured.wall_s, "1/s"},
        {"latency_p50_ms", Percentile(measured.samples, 0.50), "ms"},
        {"latency_p95_ms", Percentile(measured.samples, 0.95), "ms"},
        {"ok_frac", completed / attempts, "ratio"},
        {"cpu_ms_per_query",
         completed > 0 ? measured.cpu_s * 1e3 / completed : INFINITY, "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    // An untraced stretch first, for the tracing-overhead ratio.
    phase.seconds = std::max(1.0, config.seconds / 3);
    PhaseResult untraced = RunPhase(service.get(), refs, config.seed, phase);
    const double untraced_p50 = Percentile(untraced.samples, 0.50);
    phase.seconds = std::max(1.0, config.seconds - phase.seconds);
    phase.stream = 1;
    phase.spans = &spans;
    measured = RunPhase(service.get(), refs, config.seed, phase);
    metrics = LayerMetrics(workload, measured, spans, untraced_p50);
    measured.correct += untraced.correct;
    measured.failed += untraced.failed;
    measured.errors.insert(measured.errors.end(), untraced.errors.begin(),
                           untraced.errors.end());
    const std::string trace_path =
        (out_dir / "traces" /
         StrCat(workload.name, "-seed", config.seed, ".spans.jsonl"))
            .string();
    if (!spans.WriteJsonLines(trace_path)) {
      return Status::IoError(StrCat("cannot write ", trace_path));
    }
    std::fprintf(stderr, "spans: %s\n", trace_path.c_str());
  }
  PrintClassTable(workload, measured);
  for (const std::string& e : measured.errors) {
    std::fprintf(stderr, "failure: %s\n", e.c_str());
  }

  outcome->attempted = measured.correct + measured.failed;
  outcome->failed = measured.failed;
  outcome->correct = measured.failed == 0;
  outcome->metrics = metrics;

  const std::string result_path =
      (out_dir / "results" /
       StrCat(workload.name, "-seed", config.seed, "-trace",
              config.trace ? 1 : 0, ".json"))
          .string();
  TMDB_RETURN_IF_ERROR(WriteFile(
      result_path,
      StrCat("{\"workload\": ", JsonString(workload.name),
             ", \"trace\": ", config.trace ? "true" : "false",
             ", \"seconds\": ", JsonNumber(config.seconds),
             ", \"host\": ", HostJson(config, nproc),
             ", \"connections\": ", workload.connections,
             ", \"setup_s_each\": ", JsonArray(setup_s),
             ", \"correct\": ", outcome->correct ? "true" : "false",
             ", \"attempted\": ", outcome->attempted,
             ", \"failed\": ", outcome->failed,
             ", \"metrics\": ", MetricsJson(metrics),
             ", \"classes\": ", ClassBreakdownJson(workload, measured), "}")));
  // Every request's latency, for looking at a distribution behind a
  // percentile.
  std::string samples = "class,latency_ms,ok";
  for (const Sample& s : measured.samples) {
    samples += StrCat("\n", workload.classes[s.cls].name, ",",
                      JsonNumber(s.latency_ms), ",", s.ok ? 1 : 0);
  }
  const std::string samples_path =
      result_path.substr(0, result_path.size() - 5) + ".samples.csv";
  TMDB_RETURN_IF_ERROR(WriteFile(samples_path, samples));
  std::fprintf(stderr, "result: %s\n", result_path.c_str());
  return Status::OK();
}

int SelfTest(const std::string& out_dir) {
  namespace fs = std::filesystem;
  const std::string spill_dir = (fs::path(out_dir) / "spill").string();
  std::error_code ec;
  fs::create_directories(spill_dir, ec);
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  // The digest ignores row order and sees multiplicity and content.
  const std::vector<Value> rows = {Value::Int(1), Value::Int(2),
                                   Value::Int(3)};
  const std::vector<Value> permuted = {Value::Int(3), Value::Int(1),
                                       Value::Int(2)};
  const std::vector<Value> changed = {Value::Int(1), Value::Int(2),
                                      Value::Int(4)};
  expect(Digest(rows) == Digest(permuted), "digest is order-independent");
  expect(!(Digest(rows) == Digest(changed)), "digest sees a changed row");

  for (const std::string& name : WorkloadNames()) {
    for (const uint64_t seed : {1ull, 7ull}) {
      Service service;
      Status setup = SetUpService(name, seed, Scale::kSmall, Nproc(),
                                  spill_dir, &service);
      if (!setup.ok()) {
        expect(false, StrCat(name, " set-up: ", setup.ToString()));
        continue;
      }
      Result<ReferenceTable> refs = ComputeReferences(&service);
      if (!refs.ok()) {
        expect(false, StrCat(name, " references: ", refs.status().ToString()));
        continue;
      }
      for (size_t c = 0; c < service.workload.classes.size(); ++c) {
        const RequestClass& cls = service.workload.classes[c];
        for (size_t v = 0; v < cls.variants.size(); ++v) {
          const Reference& ref = (*refs)[c][v];
          const std::string label =
              StrCat(name, " seed ", seed, " ", cls.name, "[", v, "] (",
                     ref.rows, " rows)");
          Result<Reference> naive = ComputeReference(
              service.db.get(), cls.variants[v], Strategy::kNaive);
          expect(naive.ok() && *naive == ref,
                 StrCat(label, " reference == naive"));
          Result<ClientResult> served =
              service.clients.front()->Run(cls.variants[v]);
          expect(served.ok() && Digest(served->rows) == ref,
                 StrCat(label, " service == reference"));
        }
      }
    }
  }
  std::fprintf(stderr, "%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
               failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
