#ifndef TMDB_SPILL_VALUE_CODEC_H_
#define TMDB_SPILL_VALUE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "values/value.h"

namespace tmdb {

/// Unsigned LEB128 varint, appended to `out`. Also used by the spill file
/// layer for record framing.
void PutVarint(uint64_t v, std::string* out);

/// Decodes a varint from `data` starting at `*pos`, advancing `*pos` past
/// it. Truncated or over-long input yields kIoError.
Status GetVarint(std::string_view data, size_t* pos, uint64_t* out);

/// Appends the canonical binary encoding of `v` to `out`. The encoding is
/// self-delimiting and deterministic: structurally equal values produce
/// identical bytes, and a decoded value is structurally equal to the
/// original — same hash, same position in the Value total order. Real
/// values round-trip their exact bit pattern (including -0.0 and NaN).
void EncodeValue(const Value& v, std::string* out);

/// Decodes one value from `data` starting at `*pos`, advancing `*pos` past
/// it. Bounds-checked end to end: truncated, malformed, or adversarially
/// deep input yields kIoError, never a crash or out-of-range read. Sets are
/// rebuilt through Value::Set on decode, so a decoded set is canonical
/// (sorted, duplicate-free) even if the bytes were not; canonical bytes,
/// which EncodeValue always writes, cost one O(n) order check, no sort.
Status DecodeValue(std::string_view data, size_t* pos, Value* out);

/// DecodeValue over a stream of values (a rows payload, a spill file):
/// a decoded tuple whose names equal those of the last tuple decoded at
/// the same nesting depth shares that tuple's names list, so n rows of one
/// shape carry one list. Decodes exactly what DecodeValue decodes.
class ValueDecoder {
 public:
  Status Decode(std::string_view data, size_t* pos, Value* out);

 private:
  Status DecodeRec(std::string_view data, size_t* pos, size_t depth,
                   Value* out);
  Status DecodeElements(std::string_view data, size_t* pos, size_t depth,
                        std::vector<Value>* out);
  Status DecodeTuple(std::string_view data, size_t* pos, size_t depth,
                     Value* out);

  std::vector<TupleNames> shapes_;  // last names list per nesting depth
};

}  // namespace tmdb

#endif  // TMDB_SPILL_VALUE_CODEC_H_
