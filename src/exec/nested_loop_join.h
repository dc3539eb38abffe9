#ifndef TMDB_EXEC_NESTED_LOOP_JOIN_H_
#define TMDB_EXEC_NESTED_LOOP_JOIN_H_

#include <optional>
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
class NestedLoopJoinOp final : public PhysicalOp {
 public:
  NestedLoopJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, JoinSpec spec)
      : left_(std::move(left)), right_(std::move(right)), spec_(std::move(spec)) {}

  Status Open(ExecContext* ctx) override;
  Result<std::optional<Value>> Next() override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// Advances to the next left row, resetting the inner cursor.
  Result<bool> AdvanceLeft();

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  JoinSpec spec_;
  ExecContext* ctx_ = nullptr;

  std::vector<Value> right_rows_;       // materialised right input
  std::optional<Value> current_left_;
  size_t right_pos_ = 0;                // inner cursor (kInner/kLeftOuter)
  bool left_matched_ = false;           // kLeftOuter bookkeeping
  GuardReservation build_res_;          // bytes charged for right_rows_
  // Names lists of the output tuples, one per input shape.
  mutable TupleNamesMemo out_names_;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_NESTED_LOOP_JOIN_H_
