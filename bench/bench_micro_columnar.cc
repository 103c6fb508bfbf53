// Micro: columnar codec throughput — encode and decode per column type,
// plus dictionary vs plain strings (the server-side loading/scan costs).
// The BM_DecodeGroup cells decode one row group's column (1000 rows, ~10%
// NULL), the unit a skipping scan decodes per surviving group. The
// BM_Crc32 cells checksum 4 KiB and 256 KiB (about one spilled YCSB
// segment, which a fresh mapping verifies in full) and count bytes as
// items.

#include <benchmark/benchmark.h>

#include "bench_gbench_main.h"
#include "columnar/encoding.h"
#include "common/crc32.h"
#include "common/random.h"

namespace {

using namespace ciao;
using columnar::ColumnType;
using columnar::ColumnVector;

ColumnVector MakeColumn(ColumnType type, size_t rows, size_t distinct,
                        double null_fraction = 0.0) {
  Rng rng(11);
  ColumnVector col(type);
  for (size_t i = 0; i < rows; ++i) {
    if (null_fraction > 0 && rng.NextBool(null_fraction)) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case ColumnType::kInt64:
        col.AppendInt64(rng.NextInt(-1000000, 1000000));
        break;
      case ColumnType::kDouble:
        col.AppendDouble(rng.NextDouble());
        break;
      case ColumnType::kBool:
        col.AppendBool(rng.NextBool());
        break;
      case ColumnType::kString:
        col.AppendString("value_" +
                         std::to_string(rng.NextBounded(distinct)));
        break;
    }
  }
  return col;
}

void BM_Encode(benchmark::State& state, ColumnType type, size_t distinct) {
  const size_t rows = 100000;
  const ColumnVector col = MakeColumn(type, rows, distinct);
  for (auto _ : state) {
    std::string buf;
    columnar::EncodeColumn(col, &buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}

void DecodeLoop(benchmark::State& state, const ColumnVector& col) {
  std::string buf;
  columnar::EncodeColumn(col, &buf);
  state.counters["encoded_bytes"] = static_cast<double>(buf.size());
  for (auto _ : state) {
    size_t offset = 0;
    benchmark::DoNotOptimize(columnar::DecodeColumn(buf, &offset));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(col.size()));
}

void BM_Decode(benchmark::State& state, ColumnType type, size_t distinct) {
  DecodeLoop(state, MakeColumn(type, 100000, distinct));
}

void BM_DecodeGroup(benchmark::State& state, ColumnType type,
                    size_t distinct) {
  DecodeLoop(state, MakeColumn(type, 1000, distinct, 0.1));
}

void BM_Crc32(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(17);
  std::string bytes(len, '\0');
  for (char& b : bytes) b = static_cast<char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(len));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Encode, int64, ColumnType::kInt64, 0);
BENCHMARK_CAPTURE(BM_Encode, double, ColumnType::kDouble, 0);
BENCHMARK_CAPTURE(BM_Encode, bool, ColumnType::kBool, 0);
BENCHMARK_CAPTURE(BM_Encode, string_dict, ColumnType::kString, 8);
BENCHMARK_CAPTURE(BM_Encode, string_plain, ColumnType::kString, 1000000);
BENCHMARK_CAPTURE(BM_Decode, int64, ColumnType::kInt64, 0);
BENCHMARK_CAPTURE(BM_Decode, double, ColumnType::kDouble, 0);
BENCHMARK_CAPTURE(BM_Decode, bool, ColumnType::kBool, 0);
BENCHMARK_CAPTURE(BM_Decode, string_dict, ColumnType::kString, 8);
BENCHMARK_CAPTURE(BM_Decode, string_plain, ColumnType::kString, 1000000);
BENCHMARK_CAPTURE(BM_DecodeGroup, int64, ColumnType::kInt64, 0);
BENCHMARK_CAPTURE(BM_DecodeGroup, double, ColumnType::kDouble, 0);
BENCHMARK_CAPTURE(BM_DecodeGroup, bool, ColumnType::kBool, 0);
BENCHMARK_CAPTURE(BM_DecodeGroup, string_dict, ColumnType::kString, 8);
BENCHMARK_CAPTURE(BM_DecodeGroup, string_plain, ColumnType::kString, 1000000);
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(256 << 10);

CIAO_BENCH_JSON_MAIN("bench_micro_columnar")
