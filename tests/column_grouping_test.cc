// Workload-driven column grouping: the affinity miner's clustering
// decisions, the group-granular executor differential (grouped layouts
// must be byte-identical to the legacy per-column body on every plan
// shape), and the regroup/query race (run under TSan in CI). The
// load-bearing assertions:
//
//  * co-accessed columns merge, disjointly-accessed fat columns split,
//    cold columns pool, and max_groups is always respected,
//  * counts AND per-column projection checksums are identical across
//    legacy / single-group / per-column / randomly-partitioned layouts,
//    across full-scan vs skipping vs stale-epoch plans, and across
//    row-wise vs vectorized evaluation,
//  * a forced regroup publishes a grouped physical layout, keeps every
//    result exact, and charges the spent-time side of the regret ledger.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bitvec/bitvector_set.h"
#include "columnar/file_reader.h"
#include "columnar/file_writer.h"
#include "columnar/json_converter.h"
#include "columnar/record_batch.h"
#include "common/random.h"
#include "core/replan.h"
#include "core/system.h"
#include "engine/executor.h"
#include "engine/typed_eval.h"
#include "json/parser.h"
#include "json/writer.h"
#include "predicate/registry.h"
#include "predicate/semantic_eval.h"
#include "storage/column_grouping.h"
#include "workload/dataset.h"
#include "workload/templates.h"

namespace ciao {
namespace {

using columnar::ColumnGroupLayout;

// ---------- ColumnAccessProfile ----------

TEST(ColumnAccessProfileTest, PoolsMassByAccessSetAndDropsUnknowns) {
  const columnar::Schema schema({{"a", columnar::ColumnType::kInt64},
                                 {"b", columnar::ColumnType::kString},
                                 {"c", columnar::ColumnType::kDouble}});
  Workload wl;
  {
    Query q;  // predicate on a, projects b -> {0, 1}
    q.clauses = {Clause::Of(SimplePredicate::KeyValue("a", json::Value(1)))};
    q.projected = {"b"};
    q.frequency = 2.0;
    wl.queries.push_back(q);
  }
  {
    Query q;  // same access set via different shape: predicate b, project a
    q.clauses = {Clause::Of(SimplePredicate::Exact("b", "x"))};
    q.projected = {"a", "a", "nope"};  // dup + unknown name are dropped
    q.frequency = 1.0;
    wl.queries.push_back(q);
  }
  {
    Query q;  // {2} alone
    q.clauses = {Clause::Of(SimplePredicate::Presence("c"))};
    q.frequency = 0.5;
    wl.queries.push_back(q);
  }
  {
    Query q;  // touches nothing in-schema: contributes no entry
    q.clauses = {Clause::Of(SimplePredicate::Presence("ghost"))};
    q.frequency = 9.0;
    wl.queries.push_back(q);
  }

  const auto profile = ColumnAccessProfile::FromWorkload(wl, schema);
  EXPECT_EQ(profile.num_fields, 3u);
  ASSERT_EQ(profile.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(profile.TotalWeight(), 3.5);
  for (const auto& entry : profile.entries) {
    if (entry.columns == std::vector<uint32_t>{0, 1}) {
      EXPECT_DOUBLE_EQ(entry.weight, 3.0);
    } else {
      EXPECT_EQ(entry.columns, std::vector<uint32_t>{2});
      EXPECT_DOUBLE_EQ(entry.weight, 0.5);
    }
  }
}

// ---------- MineColumnGrouping ----------

ColumnAccessProfile MakeProfile(
    size_t num_fields,
    std::vector<std::pair<double, std::vector<uint32_t>>> entries) {
  ColumnAccessProfile profile;
  profile.num_fields = num_fields;
  for (auto& [w, cols] : entries) {
    profile.entries.push_back({w, std::move(cols)});
  }
  return profile;
}

std::vector<uint32_t> GroupOf(const ColumnGroupLayout& layout, uint32_t col) {
  for (const auto& group : layout.groups) {
    if (std::find(group.begin(), group.end(), col) != group.end()) {
      return group;
    }
  }
  return {};
}

TEST(MineColumnGroupingTest, CoAccessedColumnsMergeColdColumnsPool) {
  // Columns 0,1 always read together; 2,3 never read. Expect {0,1} in one
  // group and the cold pair pooled in another.
  const auto profile = MakeProfile(4, {{10.0, {0, 1}}});
  const std::vector<double> bytes = {8.0, 8.0, 120.0, 120.0};
  ColumnGroupingOptions opt;
  opt.min_saving_fraction = 0.0;
  const auto plan = MineColumnGrouping(profile, bytes, 4096, opt);
  ASSERT_FALSE(plan.trivial);
  ASSERT_TRUE(plan.layout.Validate(4).ok());
  EXPECT_EQ(GroupOf(plan.layout, 0), GroupOf(plan.layout, 1));
  EXPECT_EQ(GroupOf(plan.layout, 2), GroupOf(plan.layout, 3));
  EXPECT_NE(GroupOf(plan.layout, 0), GroupOf(plan.layout, 2));
  // The hot pair never decodes the fat cold columns: big estimated win.
  EXPECT_GT(plan.saving_fraction, 0.5);
  EXPECT_LT(plan.grouped_bytes_per_row, plan.baseline_bytes_per_row);
}

TEST(MineColumnGroupingTest, DisjointlyAccessedFatColumnsStaySplit) {
  // Two query populations each read one fat column. Merging would force
  // each to decode the other's bytes, far above the chunk overhead.
  const auto profile = MakeProfile(2, {{5.0, {0}}, {5.0, {1}}});
  const std::vector<double> bytes = {200.0, 200.0};
  ColumnGroupingOptions opt;
  opt.min_saving_fraction = 0.0;
  const auto plan = MineColumnGrouping(profile, bytes, 4096, opt);
  ASSERT_FALSE(plan.trivial);
  EXPECT_EQ(plan.layout.groups.size(), 2u);
  EXPECT_NE(GroupOf(plan.layout, 0), GroupOf(plan.layout, 1));
}

TEST(MineColumnGroupingTest, ChunkOverheadTipsTheMergeTradeoff) {
  // Mixed access: mass 5 reads both columns, mass 1 reads only column 0.
  // Merging saves the heavy co-access mass one chunk touch per query but
  // makes the column-0-only mass decode column 1's bytes. With a large
  // per-chunk overhead the saving wins; with a negligible one it loses.
  const auto profile = MakeProfile(2, {{5.0, {0, 1}}, {1.0, {0}}});
  const std::vector<double> bytes = {8.0, 100.0};
  ColumnGroupingOptions opt;
  opt.min_saving_fraction = 0.0;

  opt.chunk_overhead_bytes = 4096.0;  // 64 B/row at 64 rows/group
  const auto merged = MineColumnGrouping(profile, bytes, 64, opt);
  EXPECT_EQ(GroupOf(merged.layout, 0), GroupOf(merged.layout, 1));

  opt.chunk_overhead_bytes = 0.0625;  // ~0.001 B/row: overhead-free
  const auto split = MineColumnGrouping(profile, bytes, 64, opt);
  EXPECT_NE(GroupOf(split.layout, 0), GroupOf(split.layout, 1));
}

TEST(MineColumnGroupingTest, MaxGroupsCapForcesLeastDamagingMerges) {
  const auto profile = MakeProfile(
      6, {{1.0, {0}}, {1.0, {1}}, {1.0, {2}}, {1.0, {3}}, {1.0, {4, 5}}});
  const std::vector<double> bytes(6, 100.0);
  ColumnGroupingOptions opt;
  opt.max_groups = 2;
  opt.min_saving_fraction = 0.0;
  const auto plan = MineColumnGrouping(profile, bytes, 4096, opt);
  ASSERT_TRUE(plan.layout.Validate(6).ok());
  EXPECT_LE(plan.layout.groups.size(), 2u);
}

TEST(MineColumnGroupingTest, ForceSingleGroupIsTheAblationBaseline) {
  const auto profile = MakeProfile(3, {{1.0, {0}}});
  ColumnGroupingOptions opt;
  opt.force_single_group = true;
  const auto plan =
      MineColumnGrouping(profile, {8.0, 8.0, 8.0}, 4096, opt);
  ASSERT_FALSE(plan.trivial);
  ASSERT_EQ(plan.layout.groups.size(), 1u);
  EXPECT_EQ(plan.layout.groups[0], (std::vector<uint32_t>{0, 1, 2}));
}

TEST(MineColumnGroupingTest, TrivialWhenSavingBelowFloorOrNoSignal) {
  // High floor: a real saving exists but is below the installation bar.
  const auto profile = MakeProfile(4, {{10.0, {0, 1}}});
  const std::vector<double> bytes = {8.0, 8.0, 120.0, 120.0};
  ColumnGroupingOptions opt;
  opt.min_saving_fraction = 0.99;
  EXPECT_TRUE(MineColumnGrouping(profile, bytes, 4096, opt).trivial);

  // No workload signal at all.
  ColumnAccessProfile empty;
  empty.num_fields = 4;
  ColumnGroupingOptions loose;
  loose.min_saving_fraction = 0.0;
  EXPECT_TRUE(MineColumnGrouping(empty, bytes, 4096, loose).trivial);
}

TEST(ColumnGroupingTest, DefaultChunkOverheadFloorsWithoutProfile) {
  EXPECT_GE(DefaultChunkOverheadBytes(nullptr), 512.0);
}

// ---------- EstimateColumnBytes ----------

TEST(ColumnGroupingTest, EstimateColumnBytesRanksFatColumns) {
  const workload::Dataset ds = workload::GenerateWinLog({300, 13});
  TableCatalog catalog(ds.schema);
  columnar::BatchBuilder builder(ds.schema);
  for (const std::string& r : ds.records) {
    ASSERT_TRUE(builder.AppendSerialized(r).ok());
  }
  columnar::TableWriter writer(ds.schema);
  ASSERT_TRUE(writer.AppendRowGroup(builder.Finish(), BitVectorSet()).ok());
  catalog.AddSegment(std::move(writer).Finish(), ds.records.size());

  auto bytes = EstimateColumnBytes(catalog);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_EQ(bytes->size(), 4u);
  for (const double b : *bytes) EXPECT_GT(b, 0.0);
  // info (col 3) is the fat free-text column; level (col 1) is a tiny
  // dictionary-coded enum.
  EXPECT_GT((*bytes)[3], (*bytes)[1]);

  TableCatalog empty(ds.schema);
  EXPECT_TRUE(EstimateColumnBytes(empty).status().IsNotFound());
}

// ---------- Differential: grouped layouts vs the legacy body ----------

/// One catalog per physical layout over identical logical content.
struct LayoutFixture {
  workload::Dataset ds;
  std::vector<json::Value> parsed;
  PredicateRegistry registry;
  std::vector<Clause> pushed;
  /// [0] = legacy per-column body; the rest are v4 grouped layouts.
  std::vector<std::unique_ptr<TableCatalog>> catalogs;
  std::vector<std::string> names;

  explicit LayoutFixture(size_t n, uint64_t seed, bool exact_bits,
                         size_t rows_per_group = 96)
      : ds(workload::GenerateWinLog({n, seed})) {
    Init(exact_bits, rows_per_group);
  }

  // gtest fatal assertions require a void function, so the real setup
  // lives outside the constructor.
  void Init(bool exact_bits, size_t rows_per_group) {
    for (const std::string& r : ds.records) {
      parsed.push_back(*json::Parse(r));
    }
    pushed = workload::MicroTierPredicates(0.35);
    pushed.resize(2);
    for (const Clause& c : pushed) {
      ASSERT_TRUE(registry.Register(c, 0.35, 1.0).ok());
    }

    // Batches + annotations once; re-encode per layout.
    std::vector<columnar::RecordBatch> batches;
    std::vector<BitVectorSet> annotations;
    columnar::BatchBuilder builder(ds.schema);
    for (size_t start = 0; start < ds.records.size();
         start += rows_per_group) {
      const size_t end = std::min(ds.records.size(), start + rows_per_group);
      for (size_t i = start; i < end; ++i) {
        ASSERT_TRUE(builder.AppendSerialized(ds.records[i]).ok());
      }
      columnar::RecordBatch batch = builder.Finish();
      BitVectorSet bits(registry.size(), batch.num_rows());
      for (size_t p = 0; p < registry.size(); ++p) {
        if (exact_bits) {
          Query probe;
          probe.clauses = {registry.Get(static_cast<uint32_t>(p)).clause};
          auto compiled = CompiledTypedQuery::Compile(probe, ds.schema);
          ASSERT_TRUE(compiled.ok());
          for (size_t r = 0; r < batch.num_rows(); ++r) {
            if (compiled->Matches(batch, r)) {
              bits.mutable_vector(p)->Set(r, true);
            }
          }
        } else {
          const auto& program = registry.Get(static_cast<uint32_t>(p)).program;
          for (size_t r = start; r < end; ++r) {
            if (program.Matches(ds.records[r])) {
              bits.mutable_vector(p)->Set(r - start, true);
            }
          }
        }
      }
      annotations.push_back(std::move(bits));
      batches.push_back(std::move(batch));
    }

    const size_t nf = ds.schema.num_fields();
    std::vector<std::pair<std::string, ColumnGroupLayout>> layouts;
    layouts.emplace_back("legacy", ColumnGroupLayout{});
    layouts.emplace_back("single", ColumnGroupLayout::SingleGroup(nf));
    layouts.emplace_back("percol", ColumnGroupLayout::PerColumn(nf));
    ColumnGroupLayout mined;  // predicate col with a small col, rest pooled
    mined.groups = {{1, 3}, {0, 2}};
    layouts.emplace_back("mined", std::move(mined));

    for (auto& [name, layout] : layouts) {
      auto catalog = std::make_unique<TableCatalog>(ds.schema);
      columnar::TableWriter writer(ds.schema, layout);
      for (size_t b = 0; b < batches.size(); ++b) {
        ASSERT_TRUE(writer.AppendRowGroup(batches[b], annotations[b]).ok());
      }
      ColumnarSegment segment;
      segment.file_bytes = std::move(writer).Finish();
      segment.num_rows = ds.records.size();
      segment.annotations_exact = exact_bits;
      catalog->AddSegment(std::move(segment));
      catalogs.push_back(std::move(catalog));
      names.push_back(name);
    }
  }

  uint64_t BruteForceCount(const Query& q) const {
    uint64_t count = 0;
    for (const json::Value& v : parsed) {
      if (EvaluateQuery(q, v)) ++count;
    }
    return count;
  }
};

TEST(GroupedDifferentialTest, AllLayoutsAndPlansAgreeOnCountsAndHashes) {
  for (const bool exact_bits : {false, true}) {
    LayoutFixture fx(500, exact_bits ? 41 : 43, exact_bits);
    const auto other = workload::MicroTierPredicates(0.15);
    const std::vector<std::string> cols = {"time", "level", "source", "info"};
    Rng rng(exact_bits ? 7u : 11u);

    for (int iter = 0; iter < 12; ++iter) {
      Query q;
      q.name = "fz" + std::to_string(iter);
      std::vector<uint32_t> pushed_ids;
      const size_t j = rng.NextBounded(fx.pushed.size());
      q.clauses = {fx.pushed[j]};
      pushed_ids.push_back(static_cast<uint32_t>(j));
      if (j == 0 && rng.NextBool()) {
        q.clauses.push_back(fx.pushed[1]);
        pushed_ids.push_back(1);
      }
      if (rng.NextBool(0.3)) {
        q.clauses.push_back(other[rng.NextBounded(other.size())]);
      }
      // Random projection set; sometimes empty (plain COUNT), sometimes
      // with an unknown column (projects NULL everywhere).
      for (const std::string& c : cols) {
        if (rng.NextBool(0.4)) q.projected.push_back(c);
      }
      if (rng.NextBool(0.2)) q.projected.push_back("no_such_column");

      const uint64_t expected = fx.BruteForceCount(q);
      std::vector<uint64_t> reference_hashes;
      bool have_reference = false;

      for (size_t c = 0; c < fx.catalogs.size(); ++c) {
        for (const QueryEvalMode mode :
             {QueryEvalMode::kVectorized, QueryEvalMode::kRowwise}) {
          ExecutorOptions opt;
          opt.query_eval = mode;
          QueryExecutor executor(fx.catalogs[c].get(), &fx.registry, opt);
          const std::string label =
              q.ToSql() + " layout=" + fx.names[c] +
              " mode=" + std::string(QueryEvalModeName(mode));

          auto full = executor.ExecuteFullScan(q);
          ASSERT_TRUE(full.ok()) << label;
          EXPECT_EQ(full->count, expected) << label;
          auto skip = executor.Execute(q);
          ASSERT_TRUE(skip.ok()) << label;
          EXPECT_EQ(skip->plan, PlanKind::kSkippingScan) << label;
          EXPECT_EQ(skip->count, expected) << label;
          // Stale-epoch view: annotations are epoch 0, the query plans
          // against epoch 7 — bits must be distrusted, results exact.
          auto stale = executor.ExecuteWithSkipping(
              q, pushed_ids, /*epoch_id=*/7);
          ASSERT_TRUE(stale.ok()) << label;
          EXPECT_EQ(stale->count, expected) << label;
          EXPECT_GT(stale->stats.groups_stale_annotations, 0u) << label;

          ASSERT_EQ(full->projected_hashes.size(), q.projected.size());
          ASSERT_EQ(skip->projected_hashes.size(), q.projected.size());
          if (!have_reference) {
            reference_hashes = full->projected_hashes;
            have_reference = true;
          }
          // The projection checksums are layout/plan/eval-mode invariant.
          EXPECT_EQ(full->projected_hashes, reference_hashes) << label;
          EXPECT_EQ(skip->projected_hashes, reference_hashes) << label;
          EXPECT_EQ(stale->projected_hashes, reference_hashes) << label;
        }
      }
    }
  }
}

TEST(GroupedDifferentialTest, GroupGranularDecodePaysOnlyCoveringChunks) {
  // Exact bits + fully-pushed query: the skipping path counts from the
  // bits and decodes only the projected columns' chunks. On the
  // per-column layout that is exactly one column; on the single-group
  // layout the whole row rides along as waste.
  LayoutFixture fx(500, 47, /*exact_bits=*/true);
  Query q;
  q.clauses = {fx.pushed[0]};
  q.projected = {"level"};

  auto run = [&](size_t catalog_index) {
    QueryExecutor executor(fx.catalogs[catalog_index].get(), &fx.registry);
    auto result = executor.Execute(q);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result->plan, PlanKind::kSkippingScan);
    EXPECT_EQ(result->count, fx.BruteForceCount(q));
    return result->stats;
  };

  const ScanStats single = run(1);   // SingleGroup: whole-row chunks
  const ScanStats percol = run(2);   // PerColumn: one chunk per column
  ASSERT_GT(single.bytes_decoded, 0u);
  ASSERT_GT(percol.bytes_decoded, 0u);
  // Whole-row chunks decode every column; the decomposed layout decodes
  // only `level` — strictly fewer bytes, zero decode-to-skip waste.
  EXPECT_GT(single.columns_decoded, percol.columns_decoded);
  EXPECT_GT(single.bytes_decoded, percol.bytes_decoded);
  EXPECT_GT(single.bytes_decode_waste, 0u);
  EXPECT_EQ(percol.bytes_decode_waste, 0u);
}

// ---------- Random wide-schema fuzz (typed columns, random partitions) ----

TEST(GroupedDifferentialTest, RandomSchemasAndPartitionsStayByteIdentical) {
  Rng rng(2026);
  for (int round = 0; round < 6; ++round) {
    // Random schema: 5-10 columns of random types.
    const size_t nf = 5 + rng.NextBounded(6);
    std::vector<columnar::Field> fields;
    for (size_t c = 0; c < nf; ++c) {
      const auto type = static_cast<columnar::ColumnType>(rng.NextBounded(4));
      fields.push_back({"c" + std::to_string(c), type});
    }
    const columnar::Schema schema(fields);

    // Random records as JSON (occasionally missing fields -> nulls).
    std::vector<std::string> records;
    for (size_t r = 0; r < 240; ++r) {
      json::Value rec{json::Object{}};
      for (size_t c = 0; c < nf; ++c) {
        if (rng.NextBool(0.1)) continue;
        switch (fields[c].type) {
          case columnar::ColumnType::kInt64:
            rec.Add(fields[c].name, json::Value(static_cast<int64_t>(
                                        rng.NextBounded(5))));
            break;
          case columnar::ColumnType::kDouble:
            rec.Add(fields[c].name, json::Value(rng.NextDouble() * 10));
            break;
          case columnar::ColumnType::kBool:
            rec.Add(fields[c].name, json::Value(rng.NextBool()));
            break;
          case columnar::ColumnType::kString:
            rec.Add(fields[c].name,
                    json::Value("s" + std::to_string(rng.NextBounded(4))));
            break;
        }
      }
      records.push_back(json::Write(rec));
    }

    columnar::BatchBuilder builder(schema);
    for (const std::string& r : records) {
      ASSERT_TRUE(builder.AppendSerialized(r).ok());
    }
    const columnar::RecordBatch batch = builder.Finish();

    // Random partition of the columns into 1..nf groups.
    ColumnGroupLayout random_layout;
    const size_t ngroups = 1 + rng.NextBounded(nf);
    random_layout.groups.resize(ngroups);
    for (size_t c = 0; c < nf; ++c) {
      random_layout.groups[rng.NextBounded(ngroups)].push_back(
          static_cast<uint32_t>(c));
    }
    random_layout.groups.erase(
        std::remove_if(random_layout.groups.begin(),
                       random_layout.groups.end(),
                       [](const auto& g) { return g.empty(); }),
        random_layout.groups.end());
    ASSERT_TRUE(random_layout.Validate(nf).ok());

    PredicateRegistry empty_registry;
    std::vector<std::unique_ptr<TableCatalog>> catalogs;
    for (const ColumnGroupLayout& layout :
         {ColumnGroupLayout{}, random_layout}) {
      columnar::TableWriter writer(schema, layout);
      ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
      auto catalog = std::make_unique<TableCatalog>(schema);
      catalog->AddSegment(std::move(writer).Finish(), batch.num_rows());
      catalogs.push_back(std::move(catalog));
    }

    std::vector<json::Value> parsed;
    for (const std::string& r : records) parsed.push_back(*json::Parse(r));

    for (int iter = 0; iter < 8; ++iter) {
      Query q;
      // Predicate on a random column with a typed operand that can match.
      const size_t pc = rng.NextBounded(nf);
      switch (fields[pc].type) {
        case columnar::ColumnType::kInt64:
          q.clauses = {Clause::Of(SimplePredicate::KeyValue(
              fields[pc].name,
              json::Value(static_cast<int64_t>(rng.NextBounded(5)))))};
          break;
        case columnar::ColumnType::kString:
          q.clauses = {Clause::Of(SimplePredicate::Exact(
              fields[pc].name, "s" + std::to_string(rng.NextBounded(4))))};
          break;
        default:
          q.clauses = {Clause::Of(SimplePredicate::Presence(fields[pc].name))};
          break;
      }
      for (size_t c = 0; c < nf; ++c) {
        if (rng.NextBool(0.35)) q.projected.push_back(fields[c].name);
      }

      uint64_t expected = 0;
      for (const json::Value& v : parsed) {
        if (EvaluateQuery(q, v)) ++expected;
      }

      std::vector<uint64_t> reference;
      for (size_t c = 0; c < catalogs.size(); ++c) {
        QueryExecutor executor(catalogs[c].get(), &empty_registry);
        auto result = executor.ExecuteFullScan(q);
        ASSERT_TRUE(result.ok()) << q.ToSql();
        EXPECT_EQ(result->count, expected)
            << q.ToSql() << " round=" << round << " catalog=" << c;
        if (c == 0) {
          reference = result->projected_hashes;
        } else {
          EXPECT_EQ(result->projected_hashes, reference)
              << q.ToSql() << " round=" << round;
        }
      }
    }
  }
}

// ---------- End-to-end: regroup through the adaptive runtime ----------

CiaoConfig GroupedAdaptiveConfig() {
  CiaoConfig config;
  config.budget_us = 50.0;
  config.chunk_size = 64;
  config.sample_size = 300;
  config.adaptive.enabled = true;
  // Organic replans stay out of the way (see the relayout tests).
  config.adaptive.replan_interval = 1u << 20;
  config.adaptive.min_queries = 1u << 20;
  config.adaptive.relayout.enabled = true;
  config.adaptive.relayout.rows_per_group = 64;
  config.adaptive.relayout.column_grouping.enabled = true;
  config.adaptive.relayout.column_grouping.min_saving_fraction = 0.0;
  return config;
}

TEST(ColumnGroupingE2ETest, ForcedRegroupPublishesGroupedLayoutKeepsExact) {
  const workload::Dataset ds = workload::GenerateWinLog({600, 91});
  const auto pool = workload::MicroTierPredicates(0.15);
  Workload wl;
  for (size_t i = 0; i < 3; ++i) {
    Query q;
    q.name = "q" + std::to_string(i);
    q.clauses = {pool[i]};
    q.projected = {"level"};  // hot: {level, info}; time/source cold
    wl.queries.push_back(std::move(q));
  }

  auto system = CiaoSystem::Bootstrap(ds.schema, wl, ds.records,
                                      GroupedAdaptiveConfig(),
                                      CostModel::Default());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->IngestRecords(ds.records).ok());

  std::vector<uint64_t> expected;
  std::vector<std::vector<uint64_t>> expected_hashes;
  for (const Query& q : wl.queries) {
    uint64_t brute = 0;
    for (const std::string& r : ds.records) {
      auto v = json::Parse(r);
      if (v.ok() && EvaluateQuery(q, *v)) ++brute;
    }
    expected.push_back(brute);
    auto result = (*system)->ExecuteQuery(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, brute) << q.ToSql();
    expected_hashes.push_back(result->projected_hashes);
  }

  ReplanController* controller = (*system)->replan_controller();
  ASSERT_NE(controller, nullptr);
  auto relaid = controller->ForceRelayout();
  ASSERT_TRUE(relaid.ok()) << relaid.status().ToString();
  ASSERT_TRUE(*relaid);

  // The publish carried a grouped vertical layout and charged the ledger.
  const RelayoutStats stats = controller->relayout_stats();
  EXPECT_GT(stats.column_groups, 0u);
  EXPECT_GT(controller->relayout_spent_seconds(), 0.0);

  // The published segments physically carry v4 grouped bodies with the
  // mined hot/cold split: every query's access set is {level, info}
  // (predicate on info, projecting level), so those two share a chunk
  // and the never-touched time/source columns live elsewhere.
  bool saw_grouped_body = false;
  for (const SegmentRef& segment : (*system)->catalog().SnapshotSegments()) {
    auto reader = columnar::TableReader::OpenBorrowed(segment->file_bytes);
    ASSERT_TRUE(reader.ok());
    columnar::DecodeStats decode;
    std::vector<bool> one(ds.schema.num_fields(), false);
    one[1] = true;  // level
    auto batch = reader->ReadBatchProjected(0, one, &decode);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (decode.columns_decoded > 1) {
      saw_grouped_body = true;  // chunk-mate info rode along: v4 grouping
    }
    // Cold columns never share the hot chunk.
    EXPECT_EQ(batch->column(0).size(), 0u);  // time
    EXPECT_EQ(batch->column(2).size(), 0u);  // source
  }
  EXPECT_TRUE(saw_grouped_body);

  // Results stay exact (counts AND projection checksums) and the scan
  // accounts its decode volume.
  for (size_t i = 0; i < wl.queries.size(); ++i) {
    auto result = (*system)->ExecuteQuery(wl.queries[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, expected[i]) << wl.queries[i].ToSql();
    EXPECT_EQ(result->projected_hashes, expected_hashes[i])
        << wl.queries[i].ToSql();
    EXPECT_GT(result->stats.bytes_decoded, 0u);
  }
}

TEST(ColumnGroupingE2ETest, ConcurrentQueriesDuringRegroupStayConsistent) {
  // The vertical differential under races: query threads (projections
  // included) hammer the system while another thread repeatedly forces
  // regrouping rewrites underneath them. Counts and projection checksums
  // must never waver. Run under TSan in CI.
  const workload::Dataset ds = workload::GenerateWinLog({300, 71});
  const auto pool = workload::MicroTierPredicates(0.15);
  Workload wl;
  for (size_t i = 0; i < 2; ++i) {
    Query q;
    q.name = "q" + std::to_string(i);
    q.clauses = {pool[i]};
    q.projected = {"level", "source"};
    wl.queries.push_back(std::move(q));
  }

  auto system = CiaoSystem::Bootstrap(ds.schema, wl, ds.records,
                                      GroupedAdaptiveConfig(),
                                      CostModel::Default());
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->IngestRecords(ds.records).ok());

  std::vector<uint64_t> expected;
  std::vector<std::vector<uint64_t>> expected_hashes;
  for (const Query& q : wl.queries) {
    uint64_t brute = 0;
    for (const std::string& r : ds.records) {
      auto v = json::Parse(r);
      if (v.ok() && EvaluateQuery(q, *v)) ++brute;
    }
    expected.push_back(brute);
    auto result = (*system)->ExecuteQuery(q);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->count, brute);
    expected_hashes.push_back(result->projected_hashes);
  }

  ReplanController* controller = (*system)->replan_controller();
  ASSERT_NE(controller, nullptr);

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 25;
  constexpr int kRegroups = 5;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  // Queries start only once the regroup thread is about to run its first
  // pass; otherwise they can all finish before it is scheduled and no
  // pass overlaps them.
  std::atomic<bool> regroup_started{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!regroup_started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kItersPerThread; ++i) {
        const size_t qi = (static_cast<size_t>(t) + i) % wl.queries.size();
        auto result = (*system)->ExecuteQuery(wl.queries[qi]);
        if (!result.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (result->count != expected[qi] ||
            result->projected_hashes != expected_hashes[qi]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&] {
    regroup_started.store(true, std::memory_order_release);
    for (int i = 0; i < kRegroups; ++i) {
      auto relaid = controller->ForceRelayout();
      if (!relaid.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      if (done.load(std::memory_order_relaxed)) break;
    }
  });
  for (size_t t = 0; t < threads.size() - 1; ++t) threads[t].join();
  done.store(true, std::memory_order_relaxed);
  threads.back().join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE((*system)->relayouts_performed(), 1u);

  for (size_t i = 0; i < wl.queries.size(); ++i) {
    auto result = (*system)->ExecuteQuery(wl.queries[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, expected[i]);
    EXPECT_EQ(result->projected_hashes, expected_hashes[i]);
  }
}

}  // namespace
}  // namespace ciao
