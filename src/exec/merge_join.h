#ifndef TMDB_EXEC_MERGE_JOIN_H_
#define TMDB_EXEC_MERGE_JOIN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/join_common.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "spill/external_sort.h"
#include "values/value_ops.h"

namespace tmdb {

/// Sort-merge implementation of all join modes over equi-key predicates.
/// Both inputs are materialised and sorted by their composite keys at Open;
/// the merge walks the left side in key order, pairing each left row with
/// the run of equal-keyed right rows.
///
/// For the nest join this is the "simple modification of a common join
/// implementation method" the paper describes: since the merge visits each
/// left row's complete match run consecutively, the grouped output tuple can
/// be emitted as soon as the run ends, and dangling left rows (no matching
/// run) emit with the empty set.
///
/// Memory-bounded execution: each side degrades independently. When the
/// materialise/sort at Open trips the memory budget and the trip is
/// spill-eligible (see SpillEligibleTrip), the rows salvaged so far plus the
/// rest of that input go through an ExternalSorter — stable-sorted runs on
/// disk, k-way merged back in key order during the join. The in-memory sort
/// is std::stable_sort and the external merge breaks key ties by run order,
/// so both paths yield the same equal-key ordering and the join output is
/// bit-identical either way. During the merge only the current right-key
/// run is resident (charged live through a GuardReservation); a single run
/// that alone exceeds the budget bottoms out with kResourceExhausted, the
/// same boundary the hash join's skewed-partition recursion has.
class MergeJoinOp final : public PhysicalOp {
 public:
  MergeJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, JoinSpec spec,
              std::vector<Expr> left_keys, std::vector<Expr> right_keys)
      : left_(std::move(left)),
        right_(std::move(right)),
        spec_(std::move(spec)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        kernel_(spec_) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  using Keyed = std::pair<Value, Value>;  // (composite key, row)

  /// One sorted input: fully in memory, or — after an eligible memory trip
  /// — sorted runs on disk behind a SortedRunMerger. NextFromSide yields
  /// rows in ascending key order either way.
  struct SortedSide {
    std::vector<Value> raw;    // drained rows in input order (spill salvage)
    std::vector<Keyed> rows;   // stable-sorted pairs (in-memory path)
    size_t pos = 0;
    bool external = false;
    bool drained = false;      // source fully consumed into raw/runs
    bool salvageable = false;  // raw is intact and the source is still usable
    std::unique_ptr<ExternalSorter> sorter;
    std::unique_ptr<SortedRunMerger> merger;
    GuardReservation res;      // charges for raw slots, pairs, spill chunks

    void Reset(QueryGuard* guard);
  };

  /// In-memory path: drains `source`, computes keys, stable-sorts. On a
  /// memory trip, `side->raw` still holds every drained row and
  /// `side->salvageable` says whether ExternalSortSide may take over.
  Status MaterialiseSorted(PhysicalOp* source, const std::vector<Expr>& keys,
                           const std::string& var, SortedSide* side);

  /// Spill path: re-encodes the salvaged rows and the rest of `source` into
  /// stable-sorted runs sized by the live memory budget, then opens the
  /// k-way merger.
  Status ExternalSortSide(PhysicalOp* source, const std::vector<Expr>& keys,
                          const std::string& var, SortedSide* side,
                          const char* label);

  Status OpenSide(PhysicalOp* source, const std::vector<Expr>& keys,
                  const std::string& var, SortedSide* side,
                  const char* label);

  /// Yields the side's next row in key order; false at end of input.
  Result<bool> NextFromSide(SortedSide* side, Keyed* out);

  /// Buffers the run of right rows whose key equals `key` into right_run_,
  /// discarding smaller-keyed right rows (keys ascend on both sides, so the
  /// right cursor only moves forward). Equal consecutive left keys reuse
  /// the buffered run.
  Status LoadRightRun(const Value& key);
  /// Counts one step of the merge in steps_ and checkpoints once per
  /// kExecBatchSize steps.
  Status CountStep();

  /// Refills serve_ with the output of the next left row that has one;
  /// false at the end of the left input.
  Result<bool> Refill();

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  JoinSpec spec_;
  std::vector<Expr> left_keys_;
  std::vector<Expr> right_keys_;
  ExecContext* ctx_ = nullptr;

  SortedSide left_side_;
  SortedSide right_side_;

  Keyed right_pending_;        // first right row past the current run
  bool right_pending_valid_ = false;
  bool right_eof_ = false;
  std::vector<Value> right_run_;  // rows of the current equal-key run
  Value right_run_key_;
  bool right_run_valid_ = false;
  GuardReservation run_res_;   // right-run buffer slots (live-checked)
  // Left rows, right rows and pairs examined: CountStep's and the
  // JoinKernel's one count.
  uint64_t steps_ = 0;

  JoinKernel kernel_;
  // One left row's output at a time, served by NextBatch.
  JoinOutput serve_;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_MERGE_JOIN_H_
