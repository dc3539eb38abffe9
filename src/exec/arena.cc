#include "exec/arena.h"

namespace tmdb {

namespace {
inline size_t AlignUp(size_t n) { return (n + 15) & ~size_t{15}; }
}  // namespace

Result<void*> Arena::Allocate(size_t bytes) {
  bytes = AlignUp(bytes == 0 ? 1 : bytes);
  // Charge (and checkpoint) before allocating: a tripped budget must not
  // leave memory the guard never saw.
  TMDB_RETURN_IF_ERROR(res_.Add(bytes));
  blocks_.push_back(std::make_unique<char[]>(bytes));
  return blocks_.back().get();
}

void Arena::Reset() {
  blocks_.clear();
  res_.Release();
}

}  // namespace tmdb
