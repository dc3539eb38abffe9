#include "workload/generators.h"

#include <utility>
#include <vector>

#include "base/random.h"
#include "base/string_util.h"

namespace tmdb {

namespace {

// Every row of a table is built over one names list, which its tuples
// share.
Value IntTuple(const TupleNames& names, const std::vector<int64_t>& values) {
  std::vector<Value> fields;
  fields.reserve(values.size());
  for (int64_t v : values) fields.push_back(Value::Int(v));
  return Value::SharedTuple(names, std::move(fields));
}

Value RandomIntSet(Random* rng, size_t max_size, int64_t domain) {
  const size_t n = rng->Uniform(max_size + 1);
  std::vector<Value> elems;
  elems.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    elems.push_back(Value::Int(rng->UniformInt(0, domain - 1)));
  }
  return Value::Set(std::move(elems));
}

// Inserts ignoring AlreadyExists (generators may draw duplicate rows; the
// extensions are sets, so dropping duplicates is the correct semantics).
Status InsertRow(Table* table, Value row) {
  Status s = table->Insert(std::move(row));
  if (s.code() == StatusCode::kAlreadyExists) return Status::OK();
  return s;
}

}  // namespace

Status LoadCountBugTables(Database* db, const CountBugConfig& config) {
  Random rng(config.seed);
  TMDB_ASSIGN_OR_RETURN(
      auto r, db->CreateTable("R", Type::Tuple({{"a", Type::Int()},
                                                {"b", Type::Int()},
                                                {"c", Type::Int()}})));
  TMDB_ASSIGN_OR_RETURN(
      auto s, db->CreateTable("S", Type::Tuple({{"c", Type::Int()},
                                                {"d", Type::Int()}})));
  // c values [0, matched_domain) appear in S; R rows draw c from the full
  // domain, so roughly (1 - match_fraction) of them dangle.
  const int64_t full_domain =
      (static_cast<int64_t>(config.num_r) + 1) *
      (config.domain_scale < 1 ? 1 : config.domain_scale);
  const int64_t matched_domain = static_cast<int64_t>(
      static_cast<double>(full_domain) * config.match_fraction);
  const TupleNames r_names({"a", "b", "c"});
  const TupleNames s_names({"c", "d"});
  for (size_t i = 0; i < config.num_r; ++i) {
    TMDB_RETURN_IF_ERROR(InsertRow(
        r.get(),
        IntTuple(r_names,
                 {static_cast<int64_t>(i), rng.UniformInt(0, config.max_b),
                  rng.UniformInt(0, full_domain - 1)})));
  }
  for (size_t i = 0; i < config.num_s; ++i) {
    const int64_t c = matched_domain > 0
                          ? rng.UniformInt(0, matched_domain - 1)
                          : 0;
    TMDB_RETURN_IF_ERROR(InsertRow(
        s.get(), IntTuple(s_names, {c, static_cast<int64_t>(i)})));
  }
  return Status::OK();
}

Status LoadSubsetBugTables(Database* db, const SubsetBugConfig& config) {
  Random rng(config.seed);
  TMDB_ASSIGN_OR_RETURN(
      auto x,
      db->CreateTable("X", Type::Tuple({{"a", Type::Set(Type::Int())},
                                        {"b", Type::Int()}})));
  TMDB_ASSIGN_OR_RETURN(
      auto y, db->CreateTable("Y", Type::Tuple({{"a", Type::Int()},
                                                {"b", Type::Int()}})));
  const int64_t full_domain =
      (static_cast<int64_t>(config.num_x) + 1) *
      (config.domain_scale < 1 ? 1 : config.domain_scale);
  const int64_t matched_domain = static_cast<int64_t>(
      static_cast<double>(full_domain) * config.match_fraction);
  const TupleNames x_names({"a", "b"});
  const TupleNames y_names({"a", "b"});
  for (size_t i = 0; i < config.num_x; ++i) {
    Value a = rng.Bernoulli(config.empty_a_fraction)
                  ? Value::EmptySet()
                  : RandomIntSet(&rng, config.max_set_size,
                                 config.value_domain);
    TMDB_RETURN_IF_ERROR(InsertRow(
        x.get(), Value::SharedTuple(
                     x_names, {std::move(a),
                               Value::Int(rng.UniformInt(
                                   0, full_domain - 1))})));
  }
  for (size_t i = 0; i < config.num_y; ++i) {
    const int64_t b = matched_domain > 0
                          ? rng.UniformInt(0, matched_domain - 1)
                          : 0;
    TMDB_RETURN_IF_ERROR(InsertRow(
        y.get(),
        IntTuple(y_names, {rng.UniformInt(0, config.value_domain - 1), b})));
  }
  return Status::OK();
}

Status LoadSection8Tables(Database* db, const Section8Config& config) {
  Random rng(config.seed);
  TMDB_ASSIGN_OR_RETURN(
      auto x,
      db->CreateTable("X", Type::Tuple({{"a", Type::Set(Type::Int())},
                                        {"b", Type::Int()}})));
  TMDB_ASSIGN_OR_RETURN(
      auto y,
      db->CreateTable("Y", Type::Tuple({{"a", Type::Int()},
                                        {"b", Type::Int()},
                                        {"c", Type::Set(Type::Int())},
                                        {"d", Type::Int()}})));
  TMDB_ASSIGN_OR_RETURN(
      auto z, db->CreateTable("Z", Type::Tuple({{"c", Type::Int()},
                                                {"d", Type::Int()}})));
  const TupleNames x_names({"a", "b"});
  const TupleNames y_names({"a", "b", "c", "d"});
  const TupleNames z_names({"c", "d"});
  for (size_t i = 0; i < config.num_x; ++i) {
    TMDB_RETURN_IF_ERROR(InsertRow(
        x.get(),
        Value::SharedTuple(x_names,
                     {RandomIntSet(&rng, config.max_set_size,
                                   config.value_domain),
                      Value::Int(rng.UniformInt(0, config.b_domain - 1))})));
  }
  for (size_t i = 0; i < config.num_y; ++i) {
    TMDB_RETURN_IF_ERROR(InsertRow(
        y.get(),
        Value::SharedTuple(
            y_names,
            {Value::Int(rng.UniformInt(0, config.value_domain - 1)),
             Value::Int(rng.UniformInt(0, config.b_domain - 1)),
             RandomIntSet(&rng, config.max_set_size, config.value_domain),
             Value::Int(rng.UniformInt(0, config.d_domain - 1))})));
  }
  for (size_t i = 0; i < config.num_z; ++i) {
    TMDB_RETURN_IF_ERROR(InsertRow(
        z.get(),
        IntTuple(z_names, {rng.UniformInt(0, config.value_domain - 1),
                           rng.UniformInt(0, config.d_domain - 1)})));
  }
  return Status::OK();
}

Status LoadCompanyTables(Database* db, const CompanyConfig& config) {
  Random rng(config.seed);
  const Type address = Type::Tuple({{"street", Type::String()},
                                    {"nr", Type::String()},
                                    {"city", Type::String()}});
  const Type child =
      Type::Tuple({{"name", Type::String()}, {"age", Type::Int()}});
  const Type emp_schema = Type::Tuple({{"name", Type::String()},
                                       {"address", address},
                                       {"sal", Type::Int()},
                                       {"children", Type::Set(child)}});
  // DEPT stores its employees' names as a set-valued attribute (the
  // materialized-join representation the paper describes); EMP is the
  // class extension holding the employee objects.
  const Type dept_schema =
      Type::Tuple({{"dname", Type::String()},
                   {"address", address},
                   {"emps", Type::Set(Type::String())}});
  TMDB_RETURN_IF_ERROR(db->catalog()->DefineSort("Address", address));
  TMDB_ASSIGN_OR_RETURN(auto emp, db->CreateTable("EMP", emp_schema));
  TMDB_ASSIGN_OR_RETURN(auto dept, db->CreateTable("DEPT", dept_schema));

  const TupleNames address_names({"street", "nr", "city"});
  const TupleNames child_names({"name", "age"});
  const TupleNames emp_names({"name", "address", "sal", "children"});
  const TupleNames dept_names({"dname", "address", "emps"});
  auto make_address = [&](Random* r) {
    return Value::SharedTuple(
        address_names,
        {Value::String(StrCat("street", r->Uniform(config.num_streets))),
         Value::String(StrCat(1 + r->Uniform(99))),
         Value::String(StrCat("city", r->Uniform(config.num_cities)))});
  };

  std::vector<std::vector<Value>> dept_members(config.num_depts);
  for (size_t i = 0; i < config.num_emps; ++i) {
    std::vector<Value> children;
    const size_t n_children = rng.Uniform(config.max_children + 1);
    for (size_t k = 0; k < n_children; ++k) {
      children.push_back(
          Value::SharedTuple(child_names,
                             {Value::String(StrCat("child", i, "_", k)),
                              Value::Int(rng.UniformInt(0, 17))}));
    }
    Value name = Value::String(StrCat("emp", i));
    TMDB_RETURN_IF_ERROR(InsertRow(
        emp.get(),
        Value::SharedTuple(emp_names,
                           {name, make_address(&rng),
                            Value::Int(rng.UniformInt(20000, 90000)),
                            Value::Set(std::move(children))})));
    if (config.num_depts > 0) {
      dept_members[rng.Uniform(config.num_depts)].push_back(std::move(name));
    }
  }
  for (size_t i = 0; i < config.num_depts; ++i) {
    TMDB_RETURN_IF_ERROR(InsertRow(
        dept.get(),
        Value::SharedTuple(dept_names,
                           {Value::String(StrCat("dept", i)),
                            make_address(&rng),
                            Value::Set(std::move(dept_members[i]))})));
  }
  return Status::OK();
}

Status LoadCorrelatedTables(Database* db, const CorrelatedConfig& config) {
  Random rng(config.seed);
  TMDB_ASSIGN_OR_RETURN(
      auto o, db->CreateTable("O", Type::Tuple({{"a", Type::Int()},
                                                {"k", Type::Int()},
                                                {"v", Type::Int()}})));
  TMDB_ASSIGN_OR_RETURN(
      auto inner, db->CreateTable("I", Type::Tuple({{"k", Type::Int()},
                                                    {"v", Type::Int()}})));
  int64_t scale = config.correlation_scale;
  if (scale < 1) scale = 1;
  if (scale > static_cast<int64_t>(config.num_outer) &&
      config.num_outer > 0) {
    scale = static_cast<int64_t>(config.num_outer);
  }
  // Round-robin k: every correlation value appears, so a memoizing run
  // computes exactly `scale` subplans and hits on the rest. With
  // hot_key_fraction > 0 a Bernoulli draw redirects that share of rows to a
  // small hot set — the branch is guarded so the fraction-0 RNG stream (and
  // every existing workload's data) is untouched.
  const int64_t hot_set = scale < 8 ? scale : 8;
  const TupleNames o_names({"a", "k", "v"});
  const TupleNames i_names({"k", "v"});
  for (size_t i = 0; i < config.num_outer; ++i) {
    int64_t k = static_cast<int64_t>(i) % scale;
    if (config.hot_key_fraction > 0) {
      const double draw =
          static_cast<double>(rng.Uniform(1ull << 53)) /
          static_cast<double>(1ull << 53);
      if (draw < config.hot_key_fraction) k = rng.UniformInt(0, hot_set - 1);
    }
    TMDB_RETURN_IF_ERROR(InsertRow(
        o.get(),
        IntTuple(o_names,
                 {static_cast<int64_t>(i), k,
                  rng.UniformInt(0, config.value_domain - 1)})));
  }
  for (size_t i = 0; i < config.num_inner; ++i) {
    TMDB_RETURN_IF_ERROR(InsertRow(
        inner.get(),
        IntTuple(i_names, {rng.UniformInt(0, scale - 1),
                           rng.UniformInt(0, config.value_domain - 1)})));
  }
  return Status::OK();
}

Status LoadScaleTables(Database* db, const ScaleConfig& config) {
  Random rng(config.seed);
  TMDB_ASSIGN_OR_RETURN(
      auto x, db->CreateTable("X", Type::Tuple({{"a", Type::Int()},
                                                {"b", Type::Int()}})));
  TMDB_ASSIGN_OR_RETURN(
      auto y, db->CreateTable("Y", Type::Tuple({{"b", Type::Int()},
                                                {"c", Type::Int()}})));
  const TupleNames x_names({"a", "b"});
  const TupleNames y_names({"b", "c"});
  for (size_t i = 0; i < config.num_x; ++i) {
    TMDB_RETURN_IF_ERROR(InsertRow(
        x.get(),
        IntTuple(x_names, {rng.UniformInt(0, config.a_domain - 1),
                           rng.UniformInt(0, config.b_domain - 1)})));
  }
  for (size_t i = 0; i < config.num_y; ++i) {
    TMDB_RETURN_IF_ERROR(InsertRow(
        y.get(),
        IntTuple(y_names, {rng.UniformInt(0, config.b_domain - 1),
                           rng.UniformInt(0, config.a_domain - 1)})));
  }
  return Status::OK();
}

}  // namespace tmdb
