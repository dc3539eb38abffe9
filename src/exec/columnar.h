#ifndef TMDB_EXEC_COLUMNAR_H_
#define TMDB_EXEC_COLUMNAR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/result.h"
#include "exec/arena.h"
#include "expr/expr.h"
#include "types/type.h"
#include "values/column_store.h"

namespace tmdb {

/// A selection predicate compiled against one tuple layout, evaluated over
/// ColumnBatches with tight per-column loops instead of per-row
/// Environment + EvalExpr interpretation.
///
/// The compiled program is bit-identical to the row path by construction:
///   - Int/Int equality is exact 64-bit; every other numeric comparison
///     goes through the double image, including Int/Int *ordering*
///     (OrderedCompare promotes via AsNumeric) and the tri-state
///     CompareDoubles treatment of NaN;
///   - Int arithmetic stays Int (wrapping like the row path's int64 ops),
///     any Real operand promotes the operation to double;
///   - ∧/∨ are total bitmap ops — legal because every compilable
///     subexpression is side-effect- and error-free (kDiv is refused), so
///     short-circuiting is unobservable;
///   - strings compare through the column dictionary, equality by code.
///
/// Compile returns nullopt whenever any of that cannot be guaranteed:
/// non-basic operand types, references to variables other than the filter
/// variable (outer correlation), subplans, quantifiers, aggregates, IN, or
/// division. Those predicates simply stay on the row path.
class ColumnPredicate {
 public:
  /// Per-open evaluation scratch: one buffer per program slot, allocated
  /// from the operator's arena (so it is charged to the query's guard).
  struct Scratch {
    std::vector<char*> slots;
    uint32_t cap = 0;
  };

  /// Compiles `pred` with `var` bound to rows of tuple type `row_type`.
  static std::optional<ColumnPredicate> Compile(const Expr& pred,
                                               const std::string& var,
                                               const Type& row_type);

  /// True when `store` lays out exactly the tuple type this program was
  /// compiled for (column count, names, and physical kinds).
  bool Matches(const ColumnStore& store) const;

  /// Allocates slot buffers for batches of up to `cap` rows.
  Status AllocScratch(Arena* arena, uint32_t cap, Scratch* out) const;

  /// Evaluates over `batch`, writing one byte per batch row into `keep`
  /// (1 = row passes). `keep` must hold at least batch.len bytes.
  Status Eval(const ColumnBatch& batch, Scratch* scratch,
              uint8_t* keep) const;

 private:
  enum class Op : uint8_t {
    kLoadI64,      // gather i64 column -> I64 slot
    kLoadF64,      // gather f64 column -> F64 slot
    kLoadBool,     // gather bool column -> B slot
    kLoadStr,      // gather dictionary codes -> U32 slot
    kBroadcastI64, // fill I64 slot with literal
    kBroadcastF64,
    kBroadcastBool,
    kCastI64F64,   // I64 slot -> F64 slot
    kNegI64,
    kNegF64,
    kAddI64,
    kSubI64,
    kMulI64,
    kAddF64,
    kSubF64,
    kMulF64,
    kCmpEqI64,     // exact Int = Int
    kCmpNeI64,
    kCmpF64,       // tri-state double compare, all six predicates
    kCmpBool,      // =, <> on bools
    kCmpStrStr,    // two string columns (via dictionaries)
    kCmpStrLit,    // string column vs string literal
    kAnd,
    kOr,
    kNot,
  };

  enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

  struct Instr {
    Op op;
    Cmp cmp = Cmp::kEq;
    int16_t dst = -1;
    int16_t a = -1;    // slot operand
    int16_t b = -1;    // slot operand
    int16_t col = -1;  // source column (loads; string compare lhs)
    int16_t col2 = -1; // string compare rhs column
    int16_t lit = -1;  // literal-pool index
  };

  friend class ColumnPredicateCompiler;

  std::vector<Instr> instrs_;
  std::vector<int64_t> lit_i64_;
  std::vector<double> lit_f64_;
  std::vector<Value> lit_str_;
  int num_slots_ = 0;
  int result_slot_ = -1;
  // Layout requirements checked by Matches().
  size_t arity_ = 0;
  std::vector<std::string> col_names_;
  std::vector<ColumnKind> col_kinds_;
};

/// Raw-key classification for the hash join's table: a single equi-key
/// pair of the form left_var.f = right_var.g over basic types, whose slots
/// can be keyed by one 64-bit word.
///   kI64 — both sides statically Int: exact 64-bit keys.
///   kF64 — both numeric, at least one Real: keys are the double image,
///          matching how Value::Compare treats mixed numerics.
///   kStr — both String: build-side dictionary codes.
/// Bools and mismatched kinds return nullopt (the table keys its slots by
/// the composite key Value instead).
struct FastKeySpec {
  enum class Kind : uint8_t { kI64, kF64, kStr };
  Kind kind = Kind::kI64;
  std::string left_field;
  std::string right_field;
};

std::optional<FastKeySpec> ResolveFastKeys(const std::vector<Expr>& left_keys,
                                           const std::vector<Expr>& right_keys,
                                           const std::string& left_var,
                                           const std::string& right_var);

/// SplitMix64 finaliser — the slot hash of the hash join's JoinTable.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace tmdb

#endif  // TMDB_EXEC_COLUMNAR_H_
