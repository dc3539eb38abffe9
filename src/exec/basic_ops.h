#ifndef TMDB_EXEC_BASIC_OPS_H_
#define TMDB_EXEC_BASIC_OPS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/table.h"
#include "exec/arena.h"
#include "exec/columnar.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "values/value_ops.h"

namespace tmdb {

/// Scans the rows of a table extension in storage order. With
/// `try_columnar`, a flat table is additionally exposed as dense
/// ColumnBatches over its cached ColumnStore; non-flat tables silently stay
/// row-only.
class TableScanOp final : public PhysicalOp {
 public:
  explicit TableScanOp(std::shared_ptr<const Table> table,
                       bool try_columnar = false)
      : table_(std::move(table)), try_columnar_(try_columnar) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override { return {}; }

  bool columnar_ready() const override { return store_ != nullptr; }
  const ColumnStore* columnar_source() const override { return store_.get(); }
  Result<ColumnBatch> NextColumnBatch() override;

 private:
  std::shared_ptr<const Table> table_;
  bool try_columnar_ = false;
  std::shared_ptr<const ColumnStore> store_;  // non-null while columnar
  ExecContext* ctx_ = nullptr;
  size_t pos_ = 0;
};

/// Evaluates a (possibly correlated) collection-valued expression and emits
/// one row per element. Backs set-valued FROM operands such as `d.emps e`.
class ExprSourceOp final : public PhysicalOp {
 public:
  explicit ExprSourceOp(Expr expr) : expr_(std::move(expr)) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override { return {}; }

 private:
  Expr expr_;
  ExecContext* ctx_ = nullptr;
  std::vector<Value> elements_;
  size_t pos_ = 0;
};

/// σ: emits child rows for which pred(var := row) holds.
///
/// When constructed with a compiled ColumnPredicate and the child turns out
/// columnar at Open (same layout), evaluation runs column-at-a-time: the
/// predicate fills a byte mask, which is compacted into a selection id
/// vector. Row-form output is then served via ColumnStore::RowValue —
/// bit-identical rows and identical rows_emitted / predicate_evals counts.
/// All transient buffers (mask, selection vector, predicate scratch) come
/// from a per-operator arena charged to the query's guard — exactly their
/// size, so a memory budget sees a few KiB of scratch as a few KiB. When
/// even that trips the budget at Open, the filter runs the row path.
class FilterOp final : public PhysicalOp {
 public:
  FilterOp(PhysicalOpPtr child, std::string var, Expr pred,
           std::optional<ColumnPredicate> cpred = std::nullopt)
      : child_(std::move(child)),
        var_(std::move(var)),
        pred_(std::move(pred)),
        cpred_(std::move(cpred)) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {child_.get()};
  }

  bool columnar_ready() const override { return columnar_active_; }
  const ColumnStore* columnar_source() const override {
    return columnar_active_ ? child_->columnar_source() : nullptr;
  }
  Result<ColumnBatch> NextColumnBatch() override;

 private:
  /// Binds the arena and allocates the selection vector, the mask and the
  /// predicate's scratch for one batch.
  Status AllocColumnarScratch(ExecContext* ctx);

  PhysicalOpPtr child_;
  std::string var_;
  Expr pred_;
  std::optional<ColumnPredicate> cpred_;
  ExecContext* ctx_ = nullptr;
  std::vector<Value> batch_;  // scratch input batch, reused across calls

  // Columnar state, live while columnar_active_.
  bool columnar_active_ = false;
  Arena arena_;
  ColumnPredicate::Scratch scratch_;
  uint32_t* sel_ = nullptr;  // surviving row ids of the current batch
  uint8_t* keep_ = nullptr;  // predicate output mask
  ColumnBatch pending_{};    // last produced batch, for row-form serving
  uint32_t pending_pos_ = 0;
};

/// Function application with set semantics: emits expr(var := row) per child
/// row, suppressing duplicates (an SFW result is a set).
class MapOp final : public PhysicalOp {
 public:
  MapOp(PhysicalOpPtr child, std::string var, Expr expr)
      : child_(std::move(child)), var_(std::move(var)), expr_(std::move(expr)) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {child_.get()};
  }

 private:
  PhysicalOpPtr child_;
  std::string var_;
  Expr expr_;
  ExecContext* ctx_ = nullptr;
  std::unordered_set<Value, ValueHash, ValueEq> seen_;
  std::vector<Value> batch_;  // scratch input batch, reused across calls
};

/// μ: flattens the set-of-tuples attribute `attr`; each element's fields are
/// concatenated to the remaining fields of the row.
class UnnestOp final : public PhysicalOp {
 public:
  UnnestOp(PhysicalOpPtr child, std::string attr)
      : child_(std::move(child)), attr_(std::move(attr)) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {child_.get()};
  }

 private:
  /// Takes `row` as the row whose set is unnested next.
  Status StartRow(const Value& row);

  PhysicalOpPtr child_;
  std::string attr_;
  ExecContext* ctx_ = nullptr;
  std::vector<Value> batch_;            // input rows not yet unnested
  size_t batch_pos_ = 0;
  Value current_rest_;                  // row without attr
  std::vector<Value> current_elems_;    // elements still to emit
  // Names lists of the rest tuples and of the output tuples, one per input
  // shape.
  TupleNamesMemo rest_names_;
  TupleNamesMemo out_names_;
  size_t elem_pos_ = 0;
};

/// Set union: left rows, then right rows not already seen.
class UnionOp final : public PhysicalOp {
 public:
  UnionOp(PhysicalOpPtr left, PhysicalOpPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override { return "Union"; }
  std::vector<const PhysicalOp*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  ExecContext* ctx_ = nullptr;
  bool on_right_ = false;
  std::unordered_set<Value, ValueHash, ValueEq> seen_;
  std::vector<Value> batch_;  // scratch input batch, reused across calls
};

/// Set difference: left rows not occurring in the (materialised) right.
class DifferenceOp final : public PhysicalOp {
 public:
  DifferenceOp(PhysicalOpPtr left, PhysicalOpPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override { return "Difference"; }
  std::vector<const PhysicalOp*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  ExecContext* ctx_ = nullptr;
  std::unordered_set<Value, ValueHash, ValueEq> right_rows_;
  GuardReservation build_res_;  // bytes charged for right_rows_
  std::vector<Value> batch_;    // scratch input batch, reused across calls
};

}  // namespace tmdb

#endif  // TMDB_EXEC_BASIC_OPS_H_
