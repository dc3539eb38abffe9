#ifndef TMDB_EXEC_PHYSICAL_OP_H_
#define TMDB_EXEC_PHYSICAL_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "exec/exec_context.h"
#include "values/column_store.h"
#include "values/value.h"

namespace tmdb {

class PhysicalOp;
using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

/// Default batch size used by the executor when draining a plan.
inline constexpr size_t kExecBatchSize = 1024;

/// Volcano-style pull iterator over complex-object rows, a batch at a time.
///
/// Protocol: Open(ctx) → NextBatch()* → Close(). Open fully resets operator
/// state, so a plan can be executed repeatedly (the naive nested-loop
/// strategy re-opens correlated subplans once per outer row).
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;

  PhysicalOp() = default;
  PhysicalOp(const PhysicalOp&) = delete;
  PhysicalOp& operator=(const PhysicalOp&) = delete;

  /// (Re)initialises the operator. `ctx` must outlive the iteration.
  virtual Status Open(ExecContext* ctx) = 0;
  /// Appends up to `max` rows to `out` and returns the number appended.
  /// Returns 0 only at end of stream. Any `max` ≥ 1 is allowed, and a
  /// stream drained at any `max` holds the same rows in the same order.
  virtual Result<size_t> NextBatch(std::vector<Value>* out, size_t max) = 0;
  /// Releases per-execution state (materialised inputs, hash tables).
  virtual void Close() = 0;

  // -- Columnar protocol ----------------------------------------------------
  //
  // Operators over flat (all-basic-attribute) rows may additionally expose
  // their output as ColumnBatches. After Open(), a consumer checks
  // columnar_ready(); only then may it call NextColumnBatch(). The two
  // cursors are one: NextBatch() and NextColumnBatch() advance the same
  // stream, and the row form of a columnar operator is served from
  // ColumnStore::RowValue — bit-identical to what the row path emits.

  /// True when, for the current Open(), this operator produces
  /// ColumnBatches. False (the permanent default) means row-only.
  virtual bool columnar_ready() const { return false; }
  /// The store this operator's batches view, or nullptr when not
  /// columnar_ready().
  virtual const ColumnStore* columnar_source() const { return nullptr; }
  /// Returns the next batch; len == 0 at end of stream. The returned view
  /// (ids pointer in particular) is valid only until the next call on this
  /// operator. Batches are at most kExecBatchSize rows.
  virtual Result<ColumnBatch> NextColumnBatch();

  /// One-line description (operator name + parameters).
  virtual std::string Describe() const = 0;
  /// Child operators, for tree printing.
  virtual std::vector<const PhysicalOp*> children() const = 0;

  /// Multi-line physical plan rendering.
  std::string ToString() const;
};

/// Runs a physical plan to completion and collects its rows (in emission
/// order; callers wanting set semantics wrap the result in Value::Set).
Result<std::vector<Value>> CollectRows(PhysicalOp* op, ExecContext* ctx);

}  // namespace tmdb

#endif  // TMDB_EXEC_PHYSICAL_OP_H_
