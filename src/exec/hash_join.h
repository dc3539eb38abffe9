#ifndef TMDB_EXEC_HASH_JOIN_H_
#define TMDB_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/columnar.h"
#include "exec/join_common.h"
#include "exec/join_table.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "exec/spill_util.h"
#include "values/value_ops.h"

namespace tmdb {

/// Hash implementation of all join modes over equi-key predicates.
///
/// The *right* operand is always the build side. For inner joins that is
/// merely a heuristic simplification; for the nest join it is the paper's
/// correctness restriction (Section 6, "Implementation"): output must be
/// grouped by left tuples, so with a non-key join attribute only the right
/// operand may be the build table.
///
/// Every build goes into one JoinTable (join_table.h): one slot per
/// distinct build key, each slot's rows in build-input order, keyed by one
/// 64-bit word when the data allows and by the composite key Value
/// otherwise. The serial build, the parallel build, every Grace partition
/// and the probe of all five modes share it, so the nest join really is the
/// paper's "simple modification" of the hash join: one more way to consume
/// a slot's rows.
///
/// A nest join whose residual is literal true and whose G reads neither
/// the left variable nor a subplan groups once per key: X ▵ Y = ν*(X ⟖ Y)
/// (Section 6), and such a group depends only on the key. The first probe
/// of a slot builds its set with JoinTable::SharedSlotSet and every later
/// probe, serial or parallel, budgeted or not, gets the same Value;
/// predicate_evals still advances by the slot's size per probe. Other nest
/// joins build a set per probe from the same JoinTable::SlotSet.
///
/// With ExecContext::parallel_enabled(), build keys are evaluated in
/// morsels and the probe side is materialised and probed in parallel
/// morsels (each worker evaluates subplan-bearing residuals and G functions
/// with its own forked subplan evaluator). Both are bit-identical to serial
/// execution: slots keep per-key build order, morsel outputs are
/// concatenated in probe order, and worker-local stats are summed
/// deterministically. Serially, one loop probes a left batch at a time and
/// serves its output through NextBatch.
///
/// Under a memory budget the table charges its own arrays exactly, and a
/// memory trip fails the query unless ExecContext::spill is set. With
/// spill, a trip while the parallel probe materialises retries with the
/// serial probe, and a trip while the build side materialises or indexes,
/// or in the serial probe, degrades to Grace-style partitioned execution
/// instead of failing (hash_join_spill.cc, on the Grace module of
/// spill_util.h that ν shares): the build rows and the probe rows not yet
/// joined partition to disk as `tag · key · payload` records routed on the
/// composite key's hash, partitions are processed one at a time into a
/// JoinTable each (recursing on partitions that still exceed the budget;
/// one still over it at kMaxSpillDepth fails with kResourceExhausted), and
/// spilled bytes are refunded to the guard. Rows that share a key always
/// land in the same partition, so every join mode — nest join grouping and
/// dangling-row semantics included — behaves exactly as in memory, and the
/// probe records' tags (left-row indexes) restore the original output order
/// bit for bit.
class HashJoinOp final : public PhysicalOp {
 public:
  /// `left_keys[i] = right_keys[i]` are the extracted equi-conjuncts;
  /// `spec.pred` holds only the residual predicate (True if none).
  ///
  /// `fast_keys` (from ResolveFastKeys) lets the table key its slots by one
  /// raw word — i64, canonical f64 or dictionary code — and each probe read
  /// its key field instead of materialising a composite key Value. The
  /// build checks the keys' runtime kinds (strict Int / strict non-NaN
  /// Real / strict String per the spec) and switches to Value keys when
  /// any key deviates, so results and stats are bit-identical either way.
  HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, JoinSpec spec,
             std::vector<Expr> left_keys, std::vector<Expr> right_keys,
             std::optional<FastKeySpec> fast_keys = std::nullopt)
      : left_(std::move(left)),
        right_(std::move(right)),
        spec_(std::move(spec)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        fast_spec_(std::move(fast_keys)),
        table_(right_keys_, spec_.right_var, raw_spec()),
        kernel_(spec_),
        slot_sets_(spec_.mode == JoinMode::kNestJoin &&
                   kernel_.pred_is_true() && GroupsPerKey(spec_)) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {left_.get(), right_.get()};
  }

  /// True when the last Open kept its in-memory table on raw word keys.
  bool raw_keys() const { return table_.raw(); }

 private:
  const FastKeySpec* raw_spec() const {
    return fast_spec_.has_value() ? &*fast_spec_ : nullptr;
  }
  /// True when G reads neither the left variable nor a subplan.
  static bool GroupsPerKey(const JoinSpec& spec);

  /// Drains the build input into table_, or diverts to the spill path.
  Status BuildTable(ExecContext* ctx);
  /// Materialises the left input and probes it with parallel morsels,
  /// filling serve_.
  Status ParallelProbe();
  /// Refills serve_ with the output of the next left batch; false at the
  /// end of the left input, or once a materialised output is served.
  Result<bool> Refill();
  /// Hands the left rows not yet joined (those in probe_batch_, then the
  /// rest of the left input) to the Grace path when `trip` is a memory trip
  /// spill can relieve; otherwise returns `trip`.
  Status DivertProbe(const Status& trip);
  /// Frees the table and refunds its build rows once the probe input is
  /// spent, rather than at Close: what the plan builds above the join gets
  /// the budget the join no longer needs.
  void DropTable();
  /// Appends the join output rows of one left row to `out` (all modes);
  /// `pairs` is the caller's JoinKernel pair count.
  Status ProcessLeftRow(const Value& left_row, ExecContext* ctx,
                        uint64_t* pairs, std::vector<Value>* out) const;
  /// The slot `left_row` probes in `table`; `key` is its composite key
  /// when the caller already holds it (spill partitions decode it).
  Result<uint32_t> ProbeSlot(const JoinTable& table, const Value& left_row,
                             const Value* key, ExecContext* ctx) const;
  /// The output of one left row against the rows of `slot`: the shared
  /// per-slot set, or the join kernel over the slot's chain. Shared by the
  /// in-memory probe and every spill partition.
  Status ProcessMatch(const JoinTable& table, const Value& left_row,
                      uint32_t slot, ExecContext* ctx, uint64_t* pairs,
                      std::vector<Value>* out) const;

  // --- Grace spill path (hash_join_spill.cc) ---

  /// Diverts the build to disk: partitions the salvaged (and any remaining)
  /// build rows plus the probe side, then processes partitions one at a
  /// time into serve_. `right_open` says the build input still has rows;
  /// `left_open` says the probe input is open mid-stream: only
  /// `pending_left` and its unread rows are joined.
  Status SpillBuildAndProbe(ExecContext* ctx, std::vector<Value> build_rows,
                            bool right_open, bool left_open = false,
                            std::vector<Value> pending_left = {});
  /// Loads partition `part`'s build file into a table and probes its probe
  /// file, appending (left-row tag, output row) pairs; `*probing` says
  /// which half a failure came from.
  Status JoinPartition(ExecContext* ctx, const GracePart& part,
                       bool* probing, TaggedRows* out);

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  JoinSpec spec_;
  std::vector<Expr> left_keys_;
  std::vector<Expr> right_keys_;
  std::optional<FastKeySpec> fast_spec_;
  ExecContext* ctx_ = nullptr;

  // The in-memory build table (unused once the build spilled).
  JoinTable table_;

  // Join output, served by NextBatch: one left batch's output on the
  // serial probe, or the whole output when materialized_ (the parallel and
  // spill paths fill it at Open).
  std::vector<Value> probe_batch_;
  uint64_t probe_pairs_ = 0;  // the serial probe's JoinKernel pair count
  JoinOutput serve_;
  bool materialized_ = false;

  // True once this Open diverted to the Grace spill path.
  bool spilled_ = false;

  // Bytes charged to the guard for build/probe materialisation.
  GuardReservation build_res_;

  // The per-left-row join of every mode; slot_sets_: the nest join shares
  // one set per table slot instead.
  JoinKernel kernel_;
  const bool slot_sets_;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_HASH_JOIN_H_
