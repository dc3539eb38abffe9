#ifndef TMDB_EXEC_NESTED_LOOP_JOIN_H_
#define TMDB_EXEC_NESTED_LOOP_JOIN_H_

#include <string>
#include <vector>

#include "exec/join_common.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "values/value_ops.h"

namespace tmdb {

/// Nested-loop implementation of all join modes. The right input is
/// materialised once at Open; every left row scans it in full (or until a
/// match, for semi/anti). This is both the fallback for non-equi predicates
/// and — by construction — the cost model of an unoptimised nested query.
/// It keeps a mode switch of its own rather than the hash and merge joins'
/// JoinKernel: the tests check those two against this one.
class NestedLoopJoinOp final : public PhysicalOp {
 public:
  NestedLoopJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, JoinSpec spec)
      : left_(std::move(left)), right_(std::move(right)), spec_(std::move(spec)) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// Refills serve_ with the output of the next left row that has one;
  /// false at the end of the left input.
  Result<bool> Refill();
  /// Appends the output of `left_row` against every right row to `out`.
  Status JoinLeftRow(const Value& left_row, std::vector<Value>* out);
  /// Counts one pair and checkpoints once per kExecBatchSize pairs: the
  /// quadratic inner scans are the hot path a guard must bound without
  /// slowing.
  Status CountPair();

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  JoinSpec spec_;
  ExecContext* ctx_ = nullptr;

  std::vector<Value> right_rows_;       // materialised right input
  std::vector<Value> left_batch_;       // left rows pulled, not yet joined
  size_t left_pos_ = 0;
  uint64_t pairs_ = 0;                  // pairs examined, for CountPair
  GuardReservation build_res_;          // bytes charged for right_rows_
  // Names lists of the output tuples, one per input shape.
  TupleNamesMemo out_names_;
  // One left row's output at a time, served by NextBatch.
  JoinOutput serve_;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_NESTED_LOOP_JOIN_H_
