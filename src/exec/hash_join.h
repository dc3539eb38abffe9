#ifndef TMDB_EXEC_HASH_JOIN_H_
#define TMDB_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/arena.h"
#include "exec/columnar.h"
#include "exec/join_common.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "values/column_store.h"

namespace tmdb {

/// Hash implementation of all join modes over equi-key predicates.
///
/// The *right* operand is always the build side. For inner joins that is
/// merely a heuristic simplification; for the nest join it is the paper's
/// correctness restriction (Section 6, "Implementation"): output must be
/// grouped by left tuples, so with a non-key join attribute only the right
/// operand may be the build table.
///
/// With ExecContext::parallel_enabled(), the build side is hash-partitioned
/// into `num_threads` disjoint partitions whose tables are built
/// concurrently, and the probe side is materialised and probed in parallel
/// morsels (each worker evaluates subplan-bearing residuals and G functions
/// with its own forked subplan evaluator). Both paths are bit-identical to
/// serial execution: partitioning preserves per-key insertion order, morsel
/// outputs are concatenated in probe order, and worker-local stats are
/// summed deterministically.
///
/// Under a memory budget the raw-key fast table (see the constructor) runs
/// too. Its arena is charged exactly the bytes of its key and chain arrays.
/// A memory trip in the fast build spills or fails as the (larger) row
/// build would. A trip in the parallel probe falls back to the streaming
/// probe, with or without spill; a trip at a streaming fast-probe batch
/// boundary refunds the arena, builds the row table from the retained
/// build rows and carries on with the row probe. Rows are identical either
/// way.
///
/// When ExecContext::spill is set and the memory budget trips while the
/// build side materialises, the operator degrades to Grace-style
/// partitioned execution instead of failing (hash_join_spill.cc): build and
/// probe sides partition to disk on the composite key's hash, partitions
/// are processed one at a time (recursing on partitions that still exceed
/// the budget, to a bounded depth), and spilled bytes are refunded to the
/// guard. Rows that share a key always land in the same partition, so every
/// join mode — nest join grouping and dangling-row semantics included —
/// behaves exactly as in memory, and a per-left-row tag restores the
/// original output order bit for bit.
class HashJoinOp final : public PhysicalOp {
 public:
  /// `left_keys[i] = right_keys[i]` are the extracted equi-conjuncts;
  /// `spec.pred` holds only the residual predicate (True if none).
  ///
  /// `fast_keys` (from ResolveFastKeys) enables the raw-key fast path: the
  /// build keys are extracted into flat arena-backed arrays and chained
  /// into a power-of-two hash table, and each probe hashes its raw key
  /// instead of materialising a composite key Value. The fast path verifies
  /// the build keys' runtime kinds (strict Int / strict non-NaN Real /
  /// strict String per the spec) and silently falls back to the row build
  /// when any key deviates, so results and stats stay bit-identical.
  HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, JoinSpec spec,
             std::vector<Expr> left_keys, std::vector<Expr> right_keys,
             std::optional<FastKeySpec> fast_keys = std::nullopt)
      : left_(std::move(left)),
        right_(std::move(right)),
        spec_(std::move(spec)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        fast_spec_(std::move(fast_keys)) {}

  Status Open(ExecContext* ctx) override;
  Result<std::optional<Value>> Next() override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  using BuildMap =
      std::unordered_map<Value, std::vector<Value>, ValueHash, ValueEq>;

  /// Bucket for `key` in the owning partition, or nullptr.
  const std::vector<Value>* FindBucket(const Value& key) const;

  Status BuildTables(ExecContext* ctx);
  /// In-memory build from fully drained rows (serial two-pass or
  /// morsel-parallel). A memory trip during key evaluation leaves `rows`
  /// intact so the caller can divert to the spill path.
  Status BuildInMemory(ExecContext* ctx, std::vector<Value>* rows);
  /// Materialises the left input and probes it with parallel morsels,
  /// filling output_.
  Status ParallelProbe();
  /// Appends the join output rows of one left row to `out` (all modes);
  /// dispatches to the fast probe when the fast table is active.
  Status ProcessLeftRow(const Value& left_row, ExecContext* ctx,
                        std::vector<Value>* out) const;
  /// Mode dispatch for one left row against a match iterator — shared by
  /// the row path (map bucket) and the fast path (hash chain).
  template <typename Iter>
  Status ProcessMatchIt(const Value& left_row, Iter it, ExecContext* ctx,
                        std::vector<Value>* out) const;
  /// Bucket-shaped entry point for the spill path (hash_join_spill.cc).
  Status ProcessMatch(const Value& left_row, const std::vector<Value>* bucket,
                      ExecContext* ctx, std::vector<Value>* out) const;

  // --- Raw-key fast path ---

  /// Chain sentinel for heads_/next_.
  static constexpr uint32_t kNil = 0xffffffffu;

  /// Builds the flat chained table from the drained build rows. Returns
  /// false (with `rows` intact, arena reset by the caller) when a build key
  /// deviates from the spec's kind contract; errors propagate (a memory
  /// trip here is spill-eligible, also with `rows` intact).
  Result<bool> BuildFast(ExecContext* ctx, std::vector<Value>* rows);
  /// Refunds the arena and forgets the fast table (build_rows_ is kept).
  void ReleaseFastTable();
  /// The streaming fast probe's batch-boundary checkpoint. A memory trip
  /// here degrades: the fast table gives way to the row table, built from
  /// build_rows_, and the budget is re-checked.
  Status FastProbeCheckpoint();
  /// Fast-path analogue of ProcessLeftRow.
  Status ProcessLeftRowFast(const Value& left_row, ExecContext* ctx,
                            std::vector<Value>* out) const;
  /// Match iterator over one fast-table hash chain (defined in the .cc).
  struct FastIter;
  /// Serial fast probe: drains left batches through ProcessLeftRowFast into
  /// serve_ and hands rows out one at a time.
  Result<std::optional<Value>> NextFastStreaming();

  // --- Grace spill path (hash_join_spill.cc) ---

  /// One partition's pair of files on disk.
  struct SpillPart {
    std::string build_path;
    std::string probe_path;
  };

  /// True when `s` is a memory-budget trip that spilling can relieve.
  bool SpillEligible(const ExecContext* ctx, const Status& s) const;
  /// Diverts the build to disk: partitions the salvaged (and any remaining)
  /// build rows plus the whole probe side, then processes partitions one at
  /// a time into output_. `right_open` says the build input still has rows.
  Status SpillBuildAndProbe(ExecContext* ctx, std::vector<Value> build_rows,
                            bool right_open);
  /// Loads one partition's build file and probes its probe file, appending
  /// (left-row tag, output row) pairs. Recurses via Repartition when the
  /// partition alone exceeds the budget.
  Status ProcessSpillPartition(ExecContext* ctx, const SpillPart& part,
                               int depth,
                               std::vector<std::pair<uint64_t, Value>>* out);
  /// Splits both files of `part` into kSpillFanout sub-partitions at
  /// depth+1 without decoding rows (keys only), then recurses on each.
  Status RepartitionAndRecurse(ExecContext* ctx, const SpillPart& part,
                               int depth,
                               std::vector<std::pair<uint64_t, Value>>* out);

  Result<bool> AdvanceLeft();
  Result<std::optional<Value>> NextStreaming();

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  JoinSpec spec_;
  std::vector<Expr> left_keys_;
  std::vector<Expr> right_keys_;
  ExecContext* ctx_ = nullptr;

  // Build side: disjoint hash partitions (one in serial execution). A key's
  // partition is Hash() % partitions_.size().
  std::vector<BuildMap> partitions_;

  // Streaming probe state (serial path).
  size_t probe_rows_ = 0;
  std::optional<Value> current_left_;
  const std::vector<Value>* current_bucket_ = nullptr;
  size_t bucket_pos_ = 0;
  bool left_matched_ = false;

  // Materialised probe output (parallel and spill paths).
  bool materialized_ = false;
  std::vector<Value> output_;
  size_t output_pos_ = 0;

  // True once this Open diverted to the Grace spill path.
  bool spilled_ = false;

  // Bytes charged to the guard for build/probe materialisation.
  GuardReservation build_res_;

  // --- Raw-key fast path state (live while fast_active_) ---
  std::optional<FastKeySpec> fast_spec_;
  bool fast_active_ = false;
  std::vector<Value> build_rows_;  // build rows in input order
  Arena arena_{kArenaExactBlocks};  // key arrays + heads/next chains
  const int64_t* fk_i64_ = nullptr;
  const double* fk_f64_ = nullptr;
  const uint32_t* fk_codes_ = nullptr;
  uint32_t* heads_ = nullptr;
  uint32_t* next_ = nullptr;
  uint64_t bucket_mask_ = 0;
  StringDict fast_dict_;  // build-key strings; probe via Lookup (read-only)

  // Probe shortcuts, decided at Open: a literal-true residual predicate
  // still counts one predicate_eval per considered pair, and an identity G
  // (= right_var) hands back the right row — both exactly what the
  // evaluator would produce.
  bool pred_is_true_ = false;
  bool func_is_right_ident_ = false;

  // Serial fast probe: per-batch output buffer served row-by-row.
  std::vector<Value> probe_batch_;
  std::vector<Value> serve_;
  size_t serve_pos_ = 0;

  // Nest-join group memo: first-matching-build-row id → (group set, match
  // count). Only enabled serial + literal-true pred + identity G + no
  // memory budget, so it cannot race or shift budget behaviour; hits add
  // the recorded match count to predicate_evals, mirroring re-evaluation.
  bool memo_enabled_ = false;
  mutable std::unordered_map<uint32_t, std::pair<Value, uint64_t>> memo_;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_HASH_JOIN_H_
