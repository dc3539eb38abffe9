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
/// One loop probes at every thread count: each refill probes a round of
/// left rows through ParallelForMorsels. Serially a round is one left batch
/// run inline; with ExecContext::parallel_enabled() (which also evaluates
/// build keys in morsels) it is one dispatch of at most
/// kMaxMorselsPerDispatch × kMorselTargetRows rows, each morsel with its own
/// forked subplan evaluator. Outputs append in morsel order and worker-local
/// stats sum, so every thread count is bit-identical to serial execution.
/// A round tops up a short pull until it is full or the left input ends,
/// so the round that finds the end ends the probe with it, and no later
/// refill checkpoints (and trips) with nothing left to probe; only a left
/// input that ends exactly at a round's end leaves that one refill.
///
/// Under a memory budget the table charges its own arrays exactly, and a
/// memory trip fails the query unless ExecContext::spill is set. With
/// spill, a trip in a parallel round drops that round's output, and the
/// probe goes on in one-batch rounds: the rows the round pulled, then the
/// rest of the still-open left input. A trip while the build side
/// materialises or indexes, or in a one-batch round, degrades to Grace-style
/// partitioned execution (hash_join_spill.cc, on spill_util.h's Grace
/// module that ν shares): the build rows and the probe rows not yet joined
/// partition to disk as `tag · key · payload` records routed on the
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

  /// Empties the operator and binds its charges to `guard`.
  void Reset(QueryGuard* guard);
  /// Drains the build input into table_, or diverts to the spill path.
  Status BuildTable(ExecContext* ctx);
  /// Refills serve_ from the next probe rounds; false at the end.
  Result<bool> Refill();
  /// Probes the next round of left rows into serve_.
  Status ProbeRound();
  /// Switches a tripped parallel round to one-batch rounds when `trip` is
  /// a memory trip spill can relieve; otherwise returns `trip`.
  Status Degrade(const Status& trip);
  /// Hands the left rows not yet joined (the round's from probe_.pos, then
  /// the rest of the left input) to the Grace path, as Degrade does.
  Status DivertProbe(const Status& trip);
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
  /// `pending_left` and the rows the left input has yet to return join.
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

  // One Open's probe: the round's left rows, joined up to `pos` (after a
  // degrade the rest feed the one-batch rounds).
  struct Probe {
    std::vector<Value> rows;
    size_t pos = 0;
    bool left_done = false;  // the left input returned its last row
    bool ended = false;      // every left row is joined
    bool degraded = false;   // a parallel round tripped: one-batch rounds
    uint64_t pairs = 0;      // the one-batch rounds' JoinKernel pair count
  };
  Probe probe_;

  // Join output, served by NextBatch: a round's, or the whole output once
  // materialized_ (the Grace spill path fills it at once).
  JoinOutput serve_;
  bool materialized_ = false;

  // Bytes charged to the guard: the table's build rows (build_res_), and a
  // parallel round's left and output slots until the next refill.
  GuardReservation build_res_;
  GuardReservation round_res_;

  // The per-left-row join of every mode; slot_sets_: the nest join shares
  // one set per table slot instead.
  JoinKernel kernel_;
  const bool slot_sets_;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_HASH_JOIN_H_
