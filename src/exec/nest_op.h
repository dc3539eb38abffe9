#ifndef TMDB_EXEC_NEST_OP_H_
#define TMDB_EXEC_NEST_OP_H_

#include <string>
#include <utility>
#include <vector>

#include "exec/join_table.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "exec/spill_util.h"
#include "expr/expr.h"
#include "values/value_ops.h"

namespace tmdb {

/// ν (and the ν* variant): hash-groups child rows by `group_attrs`,
/// emitting one tuple per group — the key attributes extended with
/// (label = { elem(var := row) | row ∈ group }).
///
/// With null_group_to_empty (ν*, after Scholl), elements that are NULL or
/// tuples consisting solely of NULLs are dropped, so groups that exist only
/// because of outerjoin padding become the empty set. This is what makes
/// the Ganski–Wong outerjoin strategy equivalent to the nest join (paper,
/// Section 6, "Algebraic Properties").
///
/// Grouping goes through JoinTable (join_table.h), the hash join's table,
/// keyed by the group key tuples: each row's key and element image are
/// evaluated in input order (in morsels when ExecContext::parallel_enabled(),
/// each worker with its own forked subplan evaluator), the elements are
/// chained per key slot, and one tuple per slot is emitted in slot order,
/// which is the order of first occurrence. Each set is JoinTable::SlotSet of
/// its slot, built in morsels over slots when parallel. Serial and parallel
/// runs take the same path and give the same rows and stats.
///
/// Memory-bounded execution: a spill-eligible memory trip during the drain
/// or the grouping degrades to Grace-style partitioned grouping on disk,
/// through the Grace module of spill_util.h that the hash join shares —
/// rows are hash-partitioned by group key into spill files of
/// `tag · key · payload` records (tag the input row index, payload the
/// element image), each partition is grouped in read order (= input order)
/// into a JoinTable of its own, a partition whose group state still
/// overflows repartitions recursively, and the collected group tuples are
/// put in first-occurrence tag order, reproducing the in-memory group order
/// bit for bit. A partition that cannot split (one key, or kMaxSpillDepth
/// reached) is grouped in a forced pass with the memory comparison
/// suspended, since its groups are output the in-memory path keeps too.
class NestOp final : public PhysicalOp {
 public:
  NestOp(PhysicalOpPtr child, std::vector<std::string> group_attrs,
         std::string var, Expr elem, std::string label,
         bool null_group_to_empty)
      : child_(std::move(child)),
        group_names_(std::move(group_attrs)),
        var_(std::move(var)),
        elem_(std::move(elem)),
        label_(std::move(label)),
        null_group_to_empty_(null_group_to_empty) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {child_.get()};
  }

 private:
  /// Groups `*rows` into output_. Reads the rows without disturbing them,
  /// so a memory trip mid-grouping leaves them intact for the spill path.
  Status Group(const std::vector<Value>& rows);
  /// The group key tuple of `row`.
  Result<Value> KeyOf(const Value& row) const;
  /// The output tuple of `slot`: its key extended with its element set.
  Result<Value> GroupTuple(const JoinTable& table, uint32_t slot) const;

  /// Spill path (nest_op_spill.cc): partitions `rows` plus the rest of the
  /// child (when !drained) to disk and groups partition by partition.
  Status SpillGroup(std::vector<Value> rows, bool drained);
  /// Groups one partition file into (first-occurrence tag, group tuple)
  /// pairs, with the memory comparison suspended when `forced`; sets
  /// `*keys_seen` to the group keys it reached.
  Status GroupPartition(const std::string& path, bool forced,
                        size_t* keys_seen, TaggedRows* out);

  /// True for the values ν* discards: NULL itself, or a tuple whose
  /// attributes are all NULL (the image of an outerjoin-padded row).
  static bool IsNullPadding(const Value& v);

  PhysicalOpPtr child_;
  TupleNames group_names_;  // every group key tuple shares this list
  std::string var_;
  Expr elem_;
  std::string label_;
  bool null_group_to_empty_;

  ExecContext* ctx_ = nullptr;
  std::vector<Value> output_;  // materialised at Open
  size_t pos_ = 0;
  GuardReservation build_res_;  // bytes charged for materialised input/output
  // The output tuples' names list: the group key's plus the label.
  mutable TupleNamesMemo out_names_;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_NEST_OP_H_
