#ifndef TMDB_CORE_DATABASE_H_
#define TMDB_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "base/fault_injector.h"
#include "base/result.h"
#include "catalog/catalog.h"
#include "exec/exec_context.h"
#include "optimizer/planner.h"
#include "parser/statement.h"
#include "translate/strategies.h"
#include "values/value.h"

namespace tmdb {

class Executor;

/// Rows + execution metadata returned by Database::Run.
struct QueryResult {
  std::vector<Value> rows;
  ExecStats stats;
  /// The strategy that produced `rows`. Under strategy = auto this is the
  /// cost model's pick (or the switch target after an adaptive re-plan),
  /// never kAuto itself.
  Strategy strategy = Strategy::kNestJoin;
  /// True when the query ran with strategy = auto.
  bool auto_strategy = false;

  /// One row per line.
  std::string ToString(size_t max_rows = 50) const;
};

/// Outcome of one statement executed by Database::Execute.
struct StatementResult {
  bool is_query = false;
  QueryResult query;    // populated when is_query
  std::string message;  // DDL/DML outcome ("created table R", ...)

  std::string ToString(size_t max_rows = 50) const;
};

/// How Database::Run processes a query.
struct RunOptions {
  Strategy strategy = Strategy::kNestJoin;
  /// Join implementation policy for the physical planner.
  JoinImpl join_impl = JoinImpl::kAuto;
  /// Per-query max-parallelism cap (hash/nest join builds and probes):
  /// at most this many threads of the process-wide work-stealing
  /// scheduler run this query's morsels at once. A cap, not a pool size —
  /// concurrent queries share one worker pool sized to the hardware.
  /// 1 = serial execution; any value produces identical results.
  int num_threads = 1;

  // Resource governance (0 = unlimited). A query over a limit unwinds
  // cleanly with kDeadlineExceeded / kResourceExhausted; the database
  // stays usable.
  /// Wall-clock timeout for the execution phase, in milliseconds.
  int64_t timeout_ms = 0;
  /// Budget for memory materialised while executing (built values plus
  /// operator build tables).
  uint64_t memory_budget_bytes = 0;
  /// Budget on rows processed (emitted + materialised), bounding work.
  uint64_t max_rows = 0;

  /// Budget for the per-query correlated-subplan memo (REPL `\subcache`).
  /// Results of nested subqueries are cached per distinct correlation
  /// value, charged against memory_budget_bytes, and LRU-evicted under
  /// pressure. 0 disables memoization (every outer row re-evaluates its
  /// subplan); the default is 16 MiB.
  uint64_t subplan_cache_bytes = 16ull << 20;

  // Spill-to-disk (graceful degradation under memory pressure). With
  // enable_spill, a hash/nest-join build that trips memory_budget_bytes
  // partitions to disk Grace-style and completes with results bit-identical
  // to the unbudgeted run; with it off the query fails fast with
  // kResourceExhausted. Spill files live in a unique per-query directory
  // removed on every outcome.
  /// Off by default.
  bool enable_spill = false;
  /// Directory for spill files; empty = the system temp directory.
  std::string spill_dir;
  /// Spill block size (the unit of I/O, checksumming and checkpointing);
  /// 0 = 64 KiB.
  size_t spill_block_bytes = 0;

  /// Columnar execution of the hot scan/filter/join loops (scans over flat
  /// tables expose ColumnBatches, selections run compiled column
  /// predicates, hash joins probe raw-key tables). Results and stats are
  /// bit-identical with it off; the switch exists for A/B comparison and
  /// diagnosis (REPL `\columnar`).
  bool enable_columnar = true;

  /// Deterministic fault injector consulted at every guard checkpoint and
  /// every spill I/O (tests only). Not owned; must outlive the call.
  FaultInjector* fault_injector = nullptr;
};

/// The public facade: an in-memory TM-style complex-object database with
/// the paper's nested-query optimizer.
///
///   Database db;
///   db.CreateTable("R", Type::Tuple({{"a", Type::Int()}, ...}));
///   db.Insert("R", row);
///   auto result = db.Run("SELECT x FROM R x WHERE ...");
///
/// Strategies select how nested queries are processed — naive nested-loop,
/// Kim's (buggy) algorithm, Ganski–Wong outerjoins, or the paper's nest
/// join / flat-join rewriting (default).
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog* catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Creates a table with a tuple schema.
  Result<std::shared_ptr<Table>> CreateTable(const std::string& name,
                                             Type schema);
  /// Inserts one row into `table`.
  Status Insert(const std::string& table, Value row);

  /// Parses, binds, rewrites (per options.strategy), physically plans and
  /// executes `query` on `executor`, or on a throwaway one when it is null.
  /// The governance knobs in `options` are (re)applied to `executor` for
  /// this call. The server passes one executor per connection for its
  /// whole life, so another thread can cancel the in-flight query via
  /// executor->guard()->Cancel().
  Result<QueryResult> Run(const std::string& query,
                          const RunOptions& options = RunOptions(),
                          Executor* executor = nullptr);

  /// Executes one statement of the data language: CREATE TABLE,
  /// DEFINE SORT, INSERT INTO ... VALUES, or a query expression, on
  /// `executor` as in Run.
  Result<StatementResult> Execute(const std::string& statement,
                                  const RunOptions& options = RunOptions(),
                                  Executor* executor = nullptr);

  /// Executes a ';'-separated script, stopping at the first error.
  Result<std::vector<StatementResult>> ExecuteScript(
      const std::string& script, RunOptions options = RunOptions());

  /// Produces the logical plan for `query` under `strategy` without
  /// executing. `report` (optional) receives the unnesting decisions.
  /// kAuto resolves through the cost model (default sampling options) and
  /// returns the chosen strategy's rewrite.
  Result<LogicalOpPtr> Plan(const std::string& query, Strategy strategy,
                            UnnestReport* report = nullptr);

  /// Human-readable explanation: naive plan, rewritten plan, and the
  /// Table 2 classifications that drove the rewrite.
  Result<std::string> Explain(const std::string& query,
                              Strategy strategy = Strategy::kNestJoin);

 private:
  /// `executor` null = build a throwaway one for this statement.
  Result<StatementResult> ExecuteParsed(const Statement& statement,
                                        const RunOptions& options,
                                        Executor* executor = nullptr);
  /// The single query path behind Run and Execute: binds `ast`,
  /// resolves strategy = auto through the cost model, rewrites, plans and
  /// runs on `executor` (never null here).
  Result<QueryResult> RunQueryAst(const AstNode& ast,
                                  const RunOptions& options,
                                  Executor* executor);
  /// The strategy = auto path: costs the alternatives (sampling under the
  /// run's guard), executes the winner with the adaptive controller armed,
  /// and on a kStrategySwitch unwind re-plans once with the best unnested
  /// alternative against the remaining budgets.
  Result<QueryResult> RunAuto(const LogicalOpPtr& naive,
                              const RunOptions& options, Executor* executor);
  Result<std::string> ExplainAst(const AstNode& ast,
                                 const RunOptions& options);

  Catalog catalog_;
};

}  // namespace tmdb

#endif  // TMDB_CORE_DATABASE_H_
