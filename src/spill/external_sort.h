#ifndef TMDB_SPILL_EXTERNAL_SORT_H_
#define TMDB_SPILL_EXTERNAL_SORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "spill/spill_file.h"
#include "spill/spill_manager.h"
#include "values/value.h"

namespace tmdb {

/// Stable sort of (key, row) records that holds what it can in memory and
/// spills the rest to block files. Records are added to a resident chunk;
/// SpillRun stable-sorts the chunk and writes it to disk as one run. Finish
/// stable-sorts whatever is still resident and returns a SortedRunMerger
/// that k-way merges the disk runs plus the resident chunk, which counts as
/// the last run. Ties within a run keep insertion order and ties across
/// runs go to the earlier run, so the output is exactly what one
/// std::stable_sort over the whole input yields, wherever the runs were cut
/// — the merge join's bit-identical output rests on that. A sort that never
/// spilled encodes nothing: its merger walks the sorted vector.
///
/// This layer is guard-agnostic by design (tmdb_spill cannot depend on
/// tmdb_exec): the caller charges resident records to its own budget,
/// decides when to spill, and passes a checkpoint callback that is invoked
/// at every block boundary. Callers run SpillRun, SpillRest and Finish
/// under their own MemoryCheckSuspension, since the write-out itself is
/// what relieves memory pressure. All block I/O goes through
/// SpillWriter/SpillReader and therefore consults the FaultInjector's I/O
/// channels and the CRC discipline. A run record is the key's encoding
/// followed by the row's; only external_sort.cc reads or writes it.

/// Invoked at every spill-block boundary; a non-OK return aborts the sort
/// with that status. May be empty.
using SortCheckpoint = std::function<Status()>;

/// Caller-owned counters bumped as the sort progresses (typically pointers
/// into ExecStats so observability is live). Any pointer may be null.
struct SortStatsSink {
  uint64_t* runs = nullptr;           // sorted runs written
  uint64_t* bytes_written = nullptr;  // run + merge-pass bytes through disk
  uint64_t* bytes_read = nullptr;
};

/// One record of a sort: its composite key and the row it carries.
struct SortRecord {
  Value key;
  Value row;
};

/// Merge passes fold this many runs at a time; at most this many disk runs,
/// plus the resident run, are open during the final streaming merge.
inline constexpr size_t kSortMergeFanout = 16;

class SortedRunMerger;

/// Collects records and writes stable-sorted runs. Not thread-safe. Run
/// files not yet handed to a merger are removed by the destructor, so an
/// unwound query leaks nothing even before the SpillManager's final sweep.
class ExternalSorter {
 public:
  /// `label` tags run filenames ("mj-left"). `checkpoint` and any sink
  /// pointer may be null; `manager` may be null if nothing is spilled.
  ExternalSorter(SpillManager* manager, std::string label,
                 SortCheckpoint checkpoint, SortStatsSink sink);
  ~ExternalSorter();
  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  void Add(Value key, Value row) {
    chunk_.push_back(SortRecord{std::move(key), std::move(row)});
  }
  /// Records in the resident chunk.
  size_t resident() const { return chunk_.size(); }

  /// Stable-sorts the resident chunk and writes it as one run, freeing
  /// records as they are written; the chunk is empty afterwards, on success
  /// and failure alike. An empty chunk is a no-op.
  Status SpillRun();

  /// Merges the disk runs down to at most kSortMergeFanout files (removing
  /// intermediate inputs as each pass consumes them), stable-sorts the
  /// resident chunk and returns an opened merger over both. The sorter owns
  /// nothing afterwards. On failure every run file has been removed.
  Result<std::unique_ptr<SortedRunMerger>> Finish();

 private:
  Result<std::string> MergeGroup(std::vector<std::string> group, int pass,
                                 size_t index);
  void AbandonRuns();

  SpillManager* manager_;
  std::string label_;
  SortCheckpoint checkpoint_;
  SortStatsSink sink_;
  std::vector<SortRecord> chunk_;
  std::vector<std::string> run_paths_;
};

/// K-way merge over sorted run files plus an optional resident run, which
/// ranks after every file. Each run file is removed the moment it is
/// exhausted, and Close (idempotent, also from the destructor) removes
/// whatever remains — so the disk high-water mark shrinks as the merge
/// drains and an abandoned merge leaks nothing.
class SortedRunMerger {
 public:
  SortedRunMerger(SpillManager* manager, std::string label,
                  std::vector<std::string> run_paths,
                  std::vector<SortRecord> resident, SortCheckpoint checkpoint,
                  SortStatsSink sink);
  ~SortedRunMerger();
  SortedRunMerger(const SortedRunMerger&) = delete;
  SortedRunMerger& operator=(const SortedRunMerger&) = delete;

  Status Open();

  /// Moves the next record in (key, run) order into `*out`; false at the
  /// end. A failed call (a checkpoint's trip) may be repeated: it resumes
  /// where it stopped.
  Result<bool> Next(SortRecord* out);

  /// Writes the unread rest of the resident run to disk as one more run,
  /// in its place in the merge, and frees the resident records. The rest is
  /// sorted already. A no-op once nothing is resident.
  Status SpillRest();

  /// Record slots the resident run still holds, read or not.
  size_t resident() const { return resident_.size(); }

  void Close();

 private:
  friend class ExternalSorter;  // merge passes copy encoded records verbatim

  struct Head {
    std::unique_ptr<SpillReader> reader;  // null for the resident run
    Value key;
    std::string_view record;
    size_t payload_pos = 0;
    bool eof = true;
  };

  /// Pops the head holding the least (key, run); false at the end.
  Result<bool> Pop(size_t* head);
  Status Advance(size_t i);
  void RetireHead(size_t i);
  const Value& KeyOf(size_t i) const {
    return heads_[i].reader != nullptr ? heads_[i].key : resident_[pos_].key;
  }
  bool Greater(size_t a, size_t b) const;

  static constexpr size_t kNone = static_cast<size_t>(-1);

  SpillManager* manager_;
  std::string label_;
  std::vector<std::string> paths_;  // per head; "" for the resident run
                                    // and once a file is removed
  std::vector<SortRecord> resident_;
  size_t pos_ = 0;                  // next unread resident record
  size_t resident_head_ = kNone;    // heads_ index of the resident run
  SortCheckpoint checkpoint_;
  SortStatsSink sink_;
  std::vector<Head> heads_;
  std::vector<size_t> heap_;  // min-heap of head indices by (key, run)
  size_t last_ = kNone;       // popped head, advanced on the next call
  bool boundary_ = false;     // a block was loaded; checkpoint before use
  bool in_memory_ = false;    // only the resident run: no heap needed
  bool open_ = false;
  bool closed_ = false;
};

}  // namespace tmdb

#endif  // TMDB_SPILL_EXTERNAL_SORT_H_
