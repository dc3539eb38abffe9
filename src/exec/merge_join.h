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
/// Both inputs drain into an ExternalSorter at Open, keyed by their
/// composite keys; the merge walks the left side in key order, pairing each
/// left row with the run of equal-keyed right rows.
///
/// For the nest join this is the "simple modification of a common join
/// implementation method" the paper describes: since the merge visits each
/// left row's complete match run consecutively, the grouped output tuple can
/// be emitted as soon as the run ends, and dangling left rows (no matching
/// run) emit with the empty set.
///
/// Memory-bounded execution: the sorters hold their records in memory and
/// this operator charges them. A spill-eligible memory trip (see
/// SpillEligibleTrip) moves the larger side's resident records to disk and
/// retries: while a side sorts, its resident chunk goes as one sorted run;
/// once it is read back, the unread rest of its resident run goes. That
/// holds at any trip, while sorting or merging, so success is monotone in
/// the budget. The sorter's order is std::stable_sort's wherever the runs
/// were cut, so the join output is bit-identical either way. A trip with
/// nothing resident left to move fails: then the current right-key run
/// alone (charged live through a GuardReservation) exceeds the budget, the
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
  /// One input: its rows drain into `sorter` at Open, then come back in key
  /// order through `reader`. `res` charges the records either holds in
  /// memory.
  struct SortedSide {
    std::unique_ptr<ExternalSorter> sorter;
    std::unique_ptr<SortedRunMerger> reader;
    GuardReservation res;

    size_t resident() const;
    void Reset(QueryGuard* guard);
  };

  /// Drains `source` into the side's sorter, then opens its reader.
  Status SortSide(PhysicalOp* source, const std::vector<Expr>& keys,
                  const std::string& var, SortedSide* side, const char* label);

  /// Moves the resident records of the side that holds more to disk; false
  /// when neither holds any.
  Result<bool> SpillResident();
  /// Returns `st`, unless it is a spill-eligible memory trip: then moves
  /// resident records to disk and returns `retry()` instead, for as long as
  /// there are records to move and the retry trips.
  template <typename Retry>
  Status SpillOnTrip(Status st, Retry retry);

  /// Buffers the run of right rows whose key equals `key` into right_run_,
  /// discarding smaller-keyed right rows (keys ascend on both sides, so the
  /// right cursor only moves forward). Equal consecutive left keys reuse
  /// the buffered run. A call that failed resumes where it stopped.
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

  SortRecord left_row_;        // the left row being joined
  bool left_valid_ = false;
  SortRecord right_pending_;   // first right row past the current run
  bool right_pending_valid_ = false;
  std::vector<Value> right_run_;  // rows of the current equal-key run
  Value right_run_key_;
  bool right_run_valid_ = false;
  bool right_run_done_ = false;   // the run is buffered whole
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
