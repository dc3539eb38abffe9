#include "workloads.h"

#include <algorithm>
#include <string>
#include <utility>

#include "base/string_util.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using tmdb::Status;
using tmdb::StrCat;
using tmdb::WireRequest;

// Table 1: the COUNT-bug query, processed by a nest join.
constexpr char kCountBugQuery[] =
    "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
    "WHERE x.c = y.c)";
// Table 2 row "EXISTS v IN z (true)": unnests to a semijoin.
constexpr char kSemijoinQuery[] =
    "SELECT x FROM R x WHERE EXISTS v IN (SELECT y.d FROM S y "
    "WHERE x.c = y.c) (true)";
// Section 8: the three-block linear query with SUBSETEQ at both levels.
constexpr char kSection8Query[] =
    "SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y "
    "WHERE x.b = y.b AND y.c SUBSETEQ (SELECT z.c FROM Z z "
    "WHERE y.d = z.d))";
// Company Q2: nesting in the SELECT clause.
constexpr char kCompanyQ2Query[] =
    "SELECT (dname = d.dname, emps = SELECT e.name FROM EMP e "
    "WHERE e.address.city = d.address.city) FROM DEPT d";

WireRequest Request(std::string query, const std::string& strategy,
                    int num_threads) {
  WireRequest request;
  request.query = std::move(query);
  request.strategy = strategy;
  request.num_threads = static_cast<uint32_t>(num_threads);
  return request;
}

RequestClass Single(std::string name, int deck_share, WireRequest request) {
  RequestClass c;
  c.name = std::move(name);
  c.deck_share = deck_share;
  c.variants.push_back(std::move(request));
  return c;
}

// Table seeds are derived from the workload seed, so the same --seed
// always generates the same tables.
uint64_t DataSeed(uint64_t seed, uint64_t table_group) {
  return seed * 0x9E3779B97F4A7C15ULL + table_group;
}

Status NestedOlap(uint64_t seed, Scale scale, int nproc, tmdb::Database* db,
                  Workload* out) {
  const bool full = scale == Scale::kFull;
  tmdb::CountBugConfig rs;
  rs.num_r = full ? 20000 : 400;
  rs.num_s = full ? 40000 : 800;
  rs.seed = DataSeed(seed, 1);
  TMDB_RETURN_IF_ERROR(tmdb::LoadCountBugTables(db, rs));
  tmdb::Section8Config s8;
  s8.num_x = full ? 2000 : 40;
  s8.num_y = full ? 4000 : 80;
  s8.num_z = full ? 8000 : 160;
  s8.seed = DataSeed(seed, 2);
  TMDB_RETURN_IF_ERROR(tmdb::LoadSection8Tables(db, s8));
  tmdb::CompanyConfig company;
  company.num_depts = full ? 100 : 5;
  company.num_emps = full ? 5000 : 60;
  company.seed = DataSeed(seed, 3);
  TMDB_RETURN_IF_ERROR(tmdb::LoadCompanyTables(db, company));

  const int threads = std::min(3, nproc);
  out->name = "nested-olap";
  out->connections = 1;
  out->classes = {
      Single("t1-countbug", 2, Request(kCountBugQuery, "nestjoin", threads)),
      Single("t2-semijoin", 9, Request(kSemijoinQuery, "nestjoin", threads)),
      Single("s8-subseteq", 7, Request(kSection8Query, "nestjoin", threads)),
      Single("company-q2", 2, Request(kCompanyQ2Query, "nestjoin", threads)),
  };
  return Status::OK();
}

Status ShortLookup(uint64_t seed, Scale /*scale*/, int nproc,
                   tmdb::Database* db, Workload* out) {
  // The paper's own example sizes at either scale.
  tmdb::CountBugConfig rs;
  rs.num_r = 50;
  rs.num_s = 100;
  rs.seed = DataSeed(seed, 1);
  TMDB_RETURN_IF_ERROR(tmdb::LoadCountBugTables(db, rs));
  tmdb::CompanyConfig company;
  company.num_depts = 5;
  company.num_emps = 30;
  company.seed = DataSeed(seed, 3);
  TMDB_RETURN_IF_ERROR(tmdb::LoadCompanyTables(db, company));

  out->name = "short-lookup";
  out->connections = std::min(3, nproc);
  RequestClass point_r;
  point_r.name = "point-r";
  point_r.deck_share = 3;
  for (size_t a = 0; a < rs.num_r; ++a) {
    point_r.variants.push_back(
        Request(StrCat("SELECT x FROM R x WHERE x.a = ", a), "nestjoin", 1));
  }
  RequestClass point_emp;
  point_emp.name = "point-emp";
  point_emp.deck_share = 3;
  for (size_t e = 0; e < company.num_emps; ++e) {
    point_emp.variants.push_back(Request(
        StrCat("SELECT (name = e.name, sal = e.sal) FROM EMP e "
               "WHERE e.name = \"emp", e, "\""),
        "nestjoin", 1));
  }
  RequestClass count_r;
  count_r.name = "count-r";
  count_r.deck_share = 2;
  for (int64_t b = 0; b <= rs.max_b; ++b) {
    count_r.variants.push_back(Request(
        StrCat("SELECT x.a FROM R x WHERE x.b = ", b,
               " AND x.b = count(SELECT y.d FROM S y WHERE x.c = y.c)"),
        "nestjoin", 1));
  }
  RequestClass exists_dept;
  exists_dept.name = "exists-dept";
  exists_dept.deck_share = 2;
  for (int sal = 20000; sal < 90000; sal += 10000) {
    exists_dept.variants.push_back(Request(
        StrCat("SELECT d.dname FROM DEPT d WHERE EXISTS e IN "
               "(SELECT m FROM EMP m WHERE m.address.city = "
               "d.address.city) (e.sal > ",
               sal, ")"),
        "nestjoin", 1));
  }
  out->classes = {std::move(point_r), std::move(point_emp),
                  std::move(count_r), std::move(exists_dept)};
  return Status::OK();
}

Status AutoSpill(uint64_t seed, Scale scale, int /*nproc*/,
                 tmdb::Database* db, Workload* out) {
  const bool full = scale == Scale::kFull;
  tmdb::CorrelatedConfig corr;
  corr.num_outer = full ? 20000 : 400;
  corr.num_inner = full ? 1000 : 50;
  corr.correlation_scale = 10;
  corr.seed = DataSeed(seed, 4);
  TMDB_RETURN_IF_ERROR(tmdb::LoadCorrelatedTables(db, corr));
  // Wide sparse key domain: the build side dwarfs the join output, so a
  // budget exists under which the build spills but the result still fits.
  tmdb::CountBugConfig wide;
  wide.num_r = full ? 100 : 20;
  wide.num_s = full ? 24000 : 2000;
  wide.match_fraction = 0.5;
  wide.domain_scale = 64;
  wide.seed = DataSeed(seed, 5);
  TMDB_RETURN_IF_ERROR(tmdb::LoadCountBugTables(db, wide));

  // A 2 MiB budget makes the nest join's build spill one level deep: eight
  // partition files per request. Tighter budgets recurse deeper and
  // multiply the files; README.md says why none is used.
  WireRequest spilling = Request(kCountBugQuery, "auto", 1);
  spilling.memory_budget_bytes = 2u << 20;
  spilling.enable_spill = true;
  out->name = "auto-spill";
  out->connections = 1;
  out->classes = {
      // o.k takes 10 values over every outer row: ~100% subplan-cache hit
      // ratio, so the cost model picks memoized naive.
      Single("corr-k", 4,
             Request("SELECT (a = o.a, n = count(SELECT i.v FROM I i "
                     "WHERE o.k = i.k)) FROM O o",
                     "auto", 1)),
      // o.a is unique per outer row: zero hit ratio, so an unnested plan.
      Single("corr-a", 3,
             Request("SELECT (a = o.a, n = count(SELECT i.v FROM I i "
                     "WHERE o.a = i.k)) FROM O o",
                     "auto", 1)),
      Single("spill-2m", 3, spilling),
  };
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"nested-olap",
                                                 "short-lookup", "auto-spill"};
  return names;
}

Status MakeWorkload(const std::string& name, uint64_t seed, Scale scale,
                    int nproc, tmdb::Database* db, Workload* out) {
  if (nproc < 1) nproc = 1;
  if (name == "nested-olap") return NestedOlap(seed, scale, nproc, db, out);
  if (name == "short-lookup") return ShortLookup(seed, scale, nproc, db, out);
  if (name == "auto-spill") return AutoSpill(seed, scale, nproc, db, out);
  return Status::InvalidArgument(StrCat("unknown workload '", name, "'"));
}

}  // namespace perfbench
