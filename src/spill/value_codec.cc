#include "spill/value_codec.h"

#include <cstring>
#include <utility>
#include <vector>

namespace tmdb {

namespace {

// One tag byte per encoded value. Bool folds its payload into the tag.
constexpr uint8_t kTagNull = 0x00;
constexpr uint8_t kTagFalse = 0x01;
constexpr uint8_t kTagTrue = 0x02;
constexpr uint8_t kTagInt = 0x03;     // zigzag varint
constexpr uint8_t kTagReal = 0x04;    // 8 raw little-endian IEEE-754 bytes
constexpr uint8_t kTagString = 0x05;  // varint length + bytes
constexpr uint8_t kTagTuple = 0x06;   // varint n, then n × (name, value)
constexpr uint8_t kTagSet = 0x07;     // varint n, then n values
constexpr uint8_t kTagList = 0x08;    // varint n, then n values

// Checksummed blocks mean malformed bytes normally never reach the decoder;
// the depth cap is insurance against a header-corrupted length admitting a
// pathological nest that would exhaust the stack.
constexpr size_t kMaxDecodeDepth = 1000;

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

Status Truncated() { return Status::IoError("truncated value encoding"); }

// The next length-prefixed string, as a view into `data`.
Status DecodeString(std::string_view data, size_t* pos, std::string_view* out) {
  uint64_t len = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(data, pos, &len));
  if (len > data.size() - *pos) return Truncated();
  *out = data.substr(*pos, static_cast<size_t>(len));
  *pos += static_cast<size_t>(len);
  return Status::OK();
}

}  // namespace

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80u) {
    out->push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Status GetVarint(std::string_view data, size_t* pos, uint64_t* out) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= data.size()) return Truncated();
    const uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    result |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      *out = result;
      return Status::OK();
    }
  }
  return Status::IoError("over-long varint in spill data");
}

void EncodeValue(const Value& v, std::string* out) {
  switch (v.kind()) {
    case ValueKind::kNull:
      out->push_back(static_cast<char>(kTagNull));
      return;
    case ValueKind::kBool:
      out->push_back(static_cast<char>(v.AsBool() ? kTagTrue : kTagFalse));
      return;
    case ValueKind::kInt:
      out->push_back(static_cast<char>(kTagInt));
      PutVarint(ZigZag(v.AsInt()), out);
      return;
    case ValueKind::kReal: {
      out->push_back(static_cast<char>(kTagReal));
      uint64_t bits;
      const double d = v.AsReal();
      std::memcpy(&bits, &d, sizeof bits);
      for (int i = 0; i < 8; ++i) {
        out->push_back(static_cast<char>((bits >> (8 * i)) & 0xFFu));
      }
      return;
    }
    case ValueKind::kString: {
      out->push_back(static_cast<char>(kTagString));
      const std::string& s = v.AsString();
      PutVarint(s.size(), out);
      out->append(s);
      return;
    }
    case ValueKind::kTuple: {
      out->push_back(static_cast<char>(kTagTuple));
      PutVarint(v.TupleSize(), out);
      for (size_t i = 0; i < v.TupleSize(); ++i) {
        const std::string& name = v.FieldName(i);
        PutVarint(name.size(), out);
        out->append(name);
        EncodeValue(v.FieldValue(i), out);
      }
      return;
    }
    case ValueKind::kSet:
    case ValueKind::kList: {
      out->push_back(static_cast<char>(
          v.kind() == ValueKind::kSet ? kTagSet : kTagList));
      PutVarint(v.NumElements(), out);
      for (size_t i = 0; i < v.NumElements(); ++i) {
        EncodeValue(v.Element(i), out);
      }
      return;
    }
  }
}

Status DecodeValue(std::string_view data, size_t* pos, Value* out) {
  return ValueDecoder().Decode(data, pos, out);
}

Status ValueDecoder::Decode(std::string_view data, size_t* pos, Value* out) {
  return DecodeRec(data, pos, /*depth=*/0, out);
}

Status ValueDecoder::DecodeElements(std::string_view data, size_t* pos,
                                    size_t depth, std::vector<Value>* out) {
  uint64_t n = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(data, pos, &n));
  // Every element takes at least one byte, so n can never legitimately
  // exceed the remaining input; reject before reserving.
  if (n > data.size() - *pos) return Truncated();
  out->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Value elem;
    TMDB_RETURN_IF_ERROR(DecodeRec(data, pos, depth + 1, &elem));
    out->push_back(std::move(elem));
  }
  return Status::OK();
}

Status ValueDecoder::DecodeTuple(std::string_view data, size_t* pos,
                                 size_t depth, Value* out) {
  uint64_t n = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(data, pos, &n));
  if (n > data.size() - *pos) return Truncated();
  if (shapes_.size() <= depth) shapes_.resize(depth + 1);
  // The names are compared against the last list at this depth as they
  // arrive; only a mismatch copies them out. The list is read afresh for
  // each field: the fields' own tuples may grow shapes_ (moving the
  // handles), though never this depth's list.
  bool same = shapes_[depth].size() == n;
  std::vector<std::string> names;
  std::vector<Value> values;
  values.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view name;
    TMDB_RETURN_IF_ERROR(DecodeString(data, pos, &name));
    if (same && shapes_[depth][i] != name) {
      const TupleNames& last = shapes_[depth];
      same = false;
      names.reserve(static_cast<size_t>(n));
      names.assign(last.names().begin(), last.names().begin() + i);
    }
    if (!same) names.emplace_back(name);
    Value field;
    TMDB_RETURN_IF_ERROR(DecodeRec(data, pos, depth + 1, &field));
    values.push_back(std::move(field));
  }
  if (!same) shapes_[depth] = TupleNames(std::move(names));
  *out = Value::SharedTuple(shapes_[depth], std::move(values));
  return Status::OK();
}

Status ValueDecoder::DecodeRec(std::string_view data, size_t* pos,
                               size_t depth, Value* out) {
  if (depth > kMaxDecodeDepth) {
    return Status::IoError("value encoding nested too deeply");
  }
  if (*pos >= data.size()) return Truncated();
  const uint8_t tag = static_cast<uint8_t>(data[(*pos)++]);
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return Status::OK();
    case kTagFalse:
      *out = Value::Bool(false);
      return Status::OK();
    case kTagTrue:
      *out = Value::Bool(true);
      return Status::OK();
    case kTagInt: {
      uint64_t zz = 0;
      TMDB_RETURN_IF_ERROR(GetVarint(data, pos, &zz));
      *out = Value::Int(UnZigZag(zz));
      return Status::OK();
    }
    case kTagReal: {
      if (data.size() - *pos < 8) return Truncated();
      uint64_t bits = 0;
      for (int i = 0; i < 8; ++i) {
        bits |= static_cast<uint64_t>(static_cast<uint8_t>(data[*pos + i]))
                << (8 * i);
      }
      *pos += 8;
      double d;
      std::memcpy(&d, &bits, sizeof d);
      *out = Value::Real(d);
      return Status::OK();
    }
    case kTagString: {
      std::string_view s;
      TMDB_RETURN_IF_ERROR(DecodeString(data, pos, &s));
      *out = Value::String(std::string(s));
      return Status::OK();
    }
    case kTagTuple:
      return DecodeTuple(data, pos, depth, out);
    case kTagSet: {
      std::vector<Value> elems;
      TMDB_RETURN_IF_ERROR(DecodeElements(data, pos, depth, &elems));
      *out = Value::Set(std::move(elems));
      return Status::OK();
    }
    case kTagList: {
      std::vector<Value> elems;
      TMDB_RETURN_IF_ERROR(DecodeElements(data, pos, depth, &elems));
      *out = Value::List(std::move(elems));
      return Status::OK();
    }
    default:
      return Status::IoError("unknown value tag in spill data");
  }
}

}  // namespace tmdb
