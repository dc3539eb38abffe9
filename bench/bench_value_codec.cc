// Value codec cost per response shape: the service's kRows payload encode
// (EncodeRowsPayload), the client's decode (DecodeRowsPayload), and the
// drop of the decoded rows, for the three shapes the nested-olap and
// auto-spill workloads send back:
//
//   IntPairs    20000 <a, n> int tuples            (auto-spill's corr-k)
//   IntTriples  13000 <a, b, c> int tuples         (nested-olap's t2-semijoin)
//   StringSets  100 <dname, emps> tuples, each emps a set of ~1000 short
//               strings                            (nested-olap's company-q2)
//
// Each benchmark times only its own stage; the others run with the timer
// paused. The data is synthetic and seeded, shaped like the workloads'
// results rather than taken from them, so this suite needs no database.

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "net/wire.h"
#include "values/value.h"

namespace tmdb {
namespace {

using bench::CheckOk;

enum Shape { kIntPairs, kIntTriples, kStringSets };

std::vector<Value> IntRows(const std::vector<std::string>& names, int rows,
                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> value(0, 99999);
  const TupleNames shared(names);
  std::vector<Value> out;
  out.reserve(rows);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> fields;
    fields.reserve(names.size());
    fields.push_back(Value::Int(r));
    for (size_t f = 1; f < names.size(); ++f) {
      fields.push_back(Value::Int(value(rng)));
    }
    out.push_back(Value::SharedTuple(shared, std::move(fields)));
  }
  return out;
}

std::vector<Value> StringSetRows(int rows, int set_size, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> letter('a', 'z');
  std::uniform_int_distribution<int> length(4, 10);
  const TupleNames shared({"dname", "emps"});
  std::vector<Value> out;
  out.reserve(rows);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> names;
    names.reserve(set_size);
    for (int e = 0; e < set_size; ++e) {
      std::string name(static_cast<size_t>(length(rng)), ' ');
      for (char& c : name) c = static_cast<char>(letter(rng));
      names.push_back(Value::String(std::move(name)));
    }
    out.push_back(Value::SharedTuple(
        shared, {Value::String("dept" + std::to_string(r)),
                 Value::Set(std::move(names))}));
  }
  return out;
}

const std::vector<Value>& Rows(Shape shape) {
  static const std::vector<Value>* rows[] = {
      new std::vector<Value>(IntRows({"a", "n"}, 20000, 1)),
      new std::vector<Value>(IntRows({"a", "b", "c"}, 13000, 2)),
      new std::vector<Value>(StringSetRows(100, 1000, 3)),
  };
  return *rows[shape];
}

std::string Encode(const std::vector<Value>& rows) {
  std::string bytes;
  EncodeRowsPayload(rows, 0, rows.size(), &bytes);
  return bytes;
}

const std::string& Payload(Shape shape) {
  static const std::string* payloads[] = {
      new std::string(Encode(Rows(kIntPairs))),
      new std::string(Encode(Rows(kIntTriples))),
      new std::string(Encode(Rows(kStringSets))),
  };
  return *payloads[shape];
}

void SetCounters(benchmark::State& state, Shape shape) {
  state.counters["rows"] = static_cast<double>(Rows(shape).size());
  state.counters["payload_KB"] =
      static_cast<double>(Payload(shape).size()) / 1024.0;
}

void BM_Encode(benchmark::State& state) {
  const Shape shape = static_cast<Shape>(state.range(0));
  const std::vector<Value>& rows = Rows(shape);
  for (auto _ : state) {
    std::string bytes;
    EncodeRowsPayload(rows, 0, rows.size(), &bytes);
    benchmark::DoNotOptimize(bytes.data());
  }
  SetCounters(state, shape);
}

void BM_Decode(benchmark::State& state) {
  const Shape shape = static_cast<Shape>(state.range(0));
  const std::string& payload = Payload(shape);
  for (auto _ : state) {
    std::vector<Value> rows;
    CheckOk(DecodeRowsPayload(payload, &rows), "decode");
    benchmark::DoNotOptimize(rows.data());
    state.PauseTiming();
    rows = {};
    state.ResumeTiming();
  }
  SetCounters(state, shape);
}

void BM_Drop(benchmark::State& state) {
  const Shape shape = static_cast<Shape>(state.range(0));
  const std::string& payload = Payload(shape);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Value> rows;
    CheckOk(DecodeRowsPayload(payload, &rows), "decode");
    state.ResumeTiming();
    rows = {};
    benchmark::DoNotOptimize(rows.data());
  }
  SetCounters(state, shape);
}

void Shapes(benchmark::internal::Benchmark* b) {
  b->ArgName("shape")
      ->Arg(kIntPairs)
      ->Arg(kIntTriples)
      ->Arg(kStringSets)
      ->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Encode)->Apply(Shapes);
BENCHMARK(BM_Decode)->Apply(Shapes);
BENCHMARK(BM_Drop)->Apply(Shapes);

}  // namespace
}  // namespace tmdb

int main(int argc, char** argv) {
  std::printf(
      "bench_value_codec: kRows payload encode, decode and drop per "
      "response shape (shape 0 = 20000 <a, n> int rows, 1 = 13000 <a, b, c> "
      "int rows, 2 = 100 rows of a ~1000-string set)\n");
  for (int shape = tmdb::kIntPairs; shape <= tmdb::kStringSets; ++shape) {
    const auto s = static_cast<tmdb::Shape>(shape);
    std::printf("  shape %d: %zu rows, %zu payload bytes\n", shape,
                tmdb::Rows(s).size(), tmdb::Payload(s).size());
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
