#include "spill/external_sort.h"

#include <algorithm>
#include <utility>

#include "spill/value_codec.h"

namespace tmdb {

namespace {

Status RunCheckpoint(const SortCheckpoint& checkpoint) {
  return checkpoint ? checkpoint() : Status::OK();
}

void StableSortByKey(std::vector<SortRecord>* records) {
  std::stable_sort(records->begin(), records->end(),
                   [](const SortRecord& a, const SortRecord& b) {
                     return a.key.Compare(b.key) < 0;
                   });
}

/// Writes [first, last) to `path` as one run — each record the key's
/// encoding, then the row's — freeing records as they reach disk.
Status WriteRun(SpillManager* manager, const std::string& path,
                std::vector<SortRecord>::iterator first,
                std::vector<SortRecord>::iterator last,
                const SortCheckpoint& checkpoint, const SortStatsSink& sink) {
  SpillWriter writer(path, manager->block_bytes(), manager->injector());
  Status st = writer.Open();
  std::string record;
  for (; st.ok() && first != last; ++first) {
    record.clear();
    EncodeValue(first->key, &record);
    EncodeValue(first->row, &record);
    *first = SortRecord();
    st = writer.Append(record);
    if (st.ok() && writer.TookBlockBoundary()) st = RunCheckpoint(checkpoint);
  }
  if (st.ok()) st = writer.Finish();
  if (sink.bytes_written != nullptr) *sink.bytes_written += writer.stats().bytes;
  if (st.ok() && sink.runs != nullptr) ++*sink.runs;
  return st;
}

}  // namespace

// ---------------------------------------------------------------------------
// ExternalSorter

ExternalSorter::ExternalSorter(SpillManager* manager, std::string label,
                               SortCheckpoint checkpoint, SortStatsSink sink)
    : manager_(manager),
      label_(std::move(label)),
      checkpoint_(std::move(checkpoint)),
      sink_(sink) {}

ExternalSorter::~ExternalSorter() { AbandonRuns(); }

Status ExternalSorter::SpillRun() {
  if (chunk_.empty()) return Status::OK();
  StableSortByKey(&chunk_);
  Result<std::string> path =
      manager_->NewFilePath(label_ + "-r" + std::to_string(run_paths_.size()));
  // Owned from here on, so a failed write is removed with the other runs.
  if (path.ok()) run_paths_.push_back(*path);
  const Status st =
      path.ok() ? WriteRun(manager_, *path, chunk_.begin(), chunk_.end(),
                           checkpoint_, sink_)
                : path.status();
  chunk_.clear();
  return st;
}

Result<std::string> ExternalSorter::MergeGroup(std::vector<std::string> group,
                                               int pass, size_t index) {
  TMDB_ASSIGN_OR_RETURN(
      std::string out_path,
      manager_->NewFilePath(label_ + "-m" + std::to_string(pass) + "-" +
                            std::to_string(index)));
  // The group merger removes its input runs as they are exhausted and on
  // Close, so a pass's inputs are gone as soon as (or as best-effort as)
  // they have been folded into the output run.
  SortedRunMerger merger(manager_, label_, std::move(group), {}, checkpoint_,
                         sink_);
  SpillWriter writer(out_path, manager_->block_bytes(), manager_->injector());
  Status st = merger.Open();
  if (st.ok()) st = writer.Open();
  while (st.ok()) {
    size_t head = 0;
    Result<bool> got = merger.Pop(&head);
    if (!got.ok() || !*got) {
      st = got.status();
      break;
    }
    st = writer.Append(merger.heads_[head].record);
    if (st.ok() && writer.TookBlockBoundary()) st = RunCheckpoint(checkpoint_);
  }
  if (st.ok()) st = writer.Finish();
  if (sink_.bytes_written != nullptr) {
    *sink_.bytes_written += writer.stats().bytes;
  }
  merger.Close();
  if (!st.ok()) {
    manager_->RemoveFile(out_path);
    return st;
  }
  return out_path;
}

Result<std::unique_ptr<SortedRunMerger>> ExternalSorter::Finish() {
  std::vector<std::string> paths = std::move(run_paths_);
  run_paths_.clear();
  int pass = 0;
  while (paths.size() > kSortMergeFanout) {
    std::vector<std::string> next;
    Status st;
    size_t g = 0;
    for (; g < paths.size() && st.ok(); g += kSortMergeFanout) {
      const size_t end = std::min(paths.size(), g + kSortMergeFanout);
      if (end - g == 1) {
        next.push_back(std::move(paths[g]));
        continue;
      }
      Result<std::string> merged = MergeGroup(
          std::vector<std::string>(
              std::make_move_iterator(paths.begin() + static_cast<long>(g)),
              std::make_move_iterator(paths.begin() + static_cast<long>(end))),
          pass, next.size());
      if (!merged.ok()) {
        st = merged.status();
        break;
      }
      next.push_back(std::move(merged).value());
    }
    if (!st.ok()) {
      // Eagerly drop everything this sort still owns: outputs of this pass
      // and input runs of untouched groups. (The failed group's inputs were
      // already removed by its merger's Close.)
      run_paths_ = std::move(next);
      for (size_t i = g; i < paths.size(); ++i) {
        if (!paths[i].empty()) run_paths_.push_back(std::move(paths[i]));
      }
      AbandonRuns();
      return st;
    }
    paths = std::move(next);
    ++pass;
  }
  StableSortByKey(&chunk_);
  auto merger = std::make_unique<SortedRunMerger>(
      manager_, label_, std::move(paths), std::move(chunk_), checkpoint_,
      sink_);
  chunk_.clear();
  TMDB_RETURN_IF_ERROR(merger->Open());  // its dtor removes the runs
  return merger;
}

void ExternalSorter::AbandonRuns() {
  for (const std::string& path : run_paths_) {
    manager_->RemoveFile(path);
  }
  run_paths_.clear();
}

// ---------------------------------------------------------------------------
// SortedRunMerger

SortedRunMerger::SortedRunMerger(SpillManager* manager, std::string label,
                                 std::vector<std::string> run_paths,
                                 std::vector<SortRecord> resident,
                                 SortCheckpoint checkpoint, SortStatsSink sink)
    : manager_(manager),
      label_(std::move(label)),
      paths_(std::move(run_paths)),
      resident_(std::move(resident)),
      checkpoint_(std::move(checkpoint)),
      sink_(sink) {
  if (!resident_.empty()) {
    resident_head_ = paths_.size();
    paths_.emplace_back();
  }
}

SortedRunMerger::~SortedRunMerger() { Close(); }

bool SortedRunMerger::Greater(size_t a, size_t b) const {
  // Ties on key go to the lower run index: records spilled earlier surface
  // earlier, and the resident run, added last, ranks last (stability).
  const int c = KeyOf(a).Compare(KeyOf(b));
  if (c != 0) return c > 0;
  return a > b;
}

Status SortedRunMerger::Open() {
  heads_.resize(paths_.size());
  heap_.reserve(paths_.size());
  for (size_t i = 0; i < paths_.size(); ++i) {
    if (i != resident_head_) {
      heads_[i].reader =
          std::make_unique<SpillReader>(paths_[i], manager_->injector());
      TMDB_RETURN_IF_ERROR(heads_[i].reader->Open());
    }
    TMDB_RETURN_IF_ERROR(Advance(i));
    if (!heads_[i].eof) heap_.push_back(i);
  }
  const auto greater = [this](size_t a, size_t b) { return Greater(a, b); };
  std::make_heap(heap_.begin(), heap_.end(), greater);
  in_memory_ = heads_.size() == 1 && resident_head_ == 0;
  open_ = true;
  return Status::OK();
}

Status SortedRunMerger::Advance(size_t i) {
  Head& h = heads_[i];
  if (h.reader == nullptr) {  // the resident run; Next already moved pos_
    h.eof = pos_ >= resident_.size();
    return Status::OK();
  }
  std::string_view record;
  bool eof = false;
  TMDB_RETURN_IF_ERROR(h.reader->Next(&record, &eof));
  // The checkpoint waits for the next Pop, so a trip there leaves this
  // head whole and the call can be repeated.
  if (h.reader->TookBlockBoundary()) boundary_ = true;
  if (eof) {
    h.eof = true;
    RetireHead(i);
    return Status::OK();
  }
  h.eof = false;
  h.record = record;
  size_t pos = 0;
  TMDB_RETURN_IF_ERROR(DecodeValue(record, &pos, &h.key));
  h.payload_pos = pos;
  return Status::OK();
}

void SortedRunMerger::RetireHead(size_t i) {
  Head& h = heads_[i];
  if (h.reader != nullptr) {
    if (sink_.bytes_read != nullptr) {
      *sink_.bytes_read += h.reader->stats().bytes;
    }
    h.reader->Close();
    h.reader.reset();
  }
  if (!paths_[i].empty()) {
    manager_->RemoveFile(paths_[i]);
    paths_[i].clear();
  }
}

Result<bool> SortedRunMerger::Pop(size_t* head) {
  if (!open_ || closed_) {
    return Status::Internal("SortedRunMerger used before Open/after Close");
  }
  const auto greater = [this](size_t a, size_t b) { return Greater(a, b); };
  if (last_ != kNone) {
    const size_t i = last_;
    TMDB_RETURN_IF_ERROR(Advance(i));
    last_ = kNone;
    if (!heads_[i].eof) {
      heap_.push_back(i);
      std::push_heap(heap_.begin(), heap_.end(), greater);
    }
  }
  if (boundary_) {
    TMDB_RETURN_IF_ERROR(RunCheckpoint(checkpoint_));
    boundary_ = false;
  }
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), greater);
  *head = heap_.back();
  heap_.pop_back();
  last_ = *head;  // its reader advances on the next call, keeping views valid
  return true;
}

Result<bool> SortedRunMerger::Next(SortRecord* out) {
  if (in_memory_) {  // nothing on disk: walk the sorted vector
    if (pos_ == resident_.size()) return false;
    *out = std::move(resident_[pos_++]);
    return true;
  }
  size_t i = 0;
  TMDB_ASSIGN_OR_RETURN(bool have, Pop(&i));
  if (!have) return false;
  Head& h = heads_[i];
  if (h.reader == nullptr) {
    *out = std::move(resident_[pos_++]);
    return true;
  }
  out->key = std::move(h.key);
  size_t pos = h.payload_pos;
  TMDB_RETURN_IF_ERROR(DecodeValue(h.record, &pos, &out->row));
  return true;
}

Status SortedRunMerger::SpillRest() {
  const size_t r = resident_head_;
  if (r != kNone && pos_ < resident_.size()) {
    resident_head_ = kNone;
    TMDB_ASSIGN_OR_RETURN(paths_[r], manager_->NewFilePath(label_ + "-rest"));
    TMDB_RETURN_IF_ERROR(WriteRun(manager_, paths_[r],
                                  resident_.begin() + static_cast<long>(pos_),
                                  resident_.end(), checkpoint_, sink_));
    heads_[r].reader =
        std::make_unique<SpillReader>(paths_[r], manager_->injector());
    TMDB_RETURN_IF_ERROR(heads_[r].reader->Open());
    // A head still in the heap loads its record, the one it ranked by. (A
    // merger that walked its vector left the head in the heap.)
    if (last_ != r) TMDB_RETURN_IF_ERROR(Advance(r));
    in_memory_ = false;
  }
  resident_.clear();
  resident_.shrink_to_fit();
  pos_ = 0;
  return Status::OK();
}

void SortedRunMerger::Close() {
  if (closed_) return;
  closed_ = true;
  for (size_t i = 0; i < heads_.size(); ++i) {
    RetireHead(i);
  }
  // Runs never opened (Open failed early, or Open was never called).
  for (std::string& path : paths_) {
    if (!path.empty()) {
      manager_->RemoveFile(path);
      path.clear();
    }
  }
  heads_.clear();
  heap_.clear();
  resident_.clear();
  in_memory_ = false;
}

}  // namespace tmdb
