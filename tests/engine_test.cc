#include <gtest/gtest.h>

#include <limits>

#include "columnar/file_writer.h"
#include "common/random.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "engine/typed_eval.h"
#include "engine/zone_map_filter.h"
#include "columnar/json_converter.h"
#include "json/parser.h"
#include "predicate/semantic_eval.h"
#include "storage/jit_loader.h"
#include "storage/partial_loader.h"
#include "workload/dataset.h"
#include "workload/templates.h"

namespace ciao {
namespace {

// ---------- CompiledTypedQuery vs. semantic evaluation ----------

// Property: typed evaluation over loaded columnar data agrees with
// semantic evaluation over the original JSON for schema-conformant
// records — the invariant that makes verify-after-skip correct.
TEST(TypedEvalTest, AgreesWithSemanticEvalOnGeneratedData) {
  for (const auto kind :
       {workload::DatasetKind::kYelp, workload::DatasetKind::kWinLog,
        workload::DatasetKind::kYcsb}) {
    workload::GeneratorOptions opt;
    opt.num_records = 300;
    opt.seed = 7;
    const workload::Dataset ds = workload::GenerateDataset(kind, opt);

    // Load everything into one batch.
    columnar::BatchBuilder builder(ds.schema);
    std::vector<json::Value> parsed;
    for (const std::string& r : ds.records) {
      auto v = json::Parse(r);
      ASSERT_TRUE(v.ok());
      builder.AppendParsed(*v);
      parsed.push_back(std::move(v).value());
    }
    ASSERT_EQ(builder.coercion_errors(), 0u);
    const columnar::RecordBatch batch = builder.Finish();

    // Queries of 1-3 random template predicates.
    const auto pool = workload::TemplatesFor(kind).AllCandidates();
    Rng rng(13);
    for (int iter = 0; iter < 40; ++iter) {
      Query q;
      const size_t n_clauses = 1 + rng.NextBounded(3);
      for (size_t c = 0; c < n_clauses; ++c) {
        q.clauses.push_back(pool[rng.NextBounded(pool.size())]);
      }
      auto compiled = CompiledTypedQuery::Compile(q, ds.schema);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        const bool typed = compiled->Matches(batch, r);
        const bool semantic = EvaluateQuery(q, parsed[r]);
        ASSERT_EQ(typed, semantic)
            << ds.name << " row " << r << " query " << q.ToSql();
      }
    }
  }
}

TEST(TypedEvalTest, MissingFieldIsCompileError) {
  columnar::Schema schema({{"a", columnar::ColumnType::kInt64}});
  Query q;
  q.clauses.push_back(Clause::Of(SimplePredicate::KeyValue("ghost", 1)));
  EXPECT_TRUE(
      CompiledTypedQuery::Compile(q, schema).status().IsInvalidArgument());
}

TEST(TypedEvalTest, NullNeverMatchesExceptAbsencePredicates) {
  columnar::Schema schema({{"s", columnar::ColumnType::kString}});
  columnar::RecordBatch batch(schema);
  batch.mutable_column(0)->AppendNull();
  batch.mutable_column(0)->AppendString("x");

  Query presence;
  presence.clauses.push_back(Clause::Of(SimplePredicate::Presence("s")));
  auto cp = CompiledTypedQuery::Compile(presence, schema);
  EXPECT_FALSE(cp->Matches(batch, 0));
  EXPECT_TRUE(cp->Matches(batch, 1));

  Query exact;
  exact.clauses.push_back(Clause::Of(SimplePredicate::Exact("s", "x")));
  auto ce = CompiledTypedQuery::Compile(exact, schema);
  EXPECT_FALSE(ce->Matches(batch, 0));
  EXPECT_TRUE(ce->Matches(batch, 1));
}

TEST(TypedEvalTest, RangePredicateOnNumericColumns) {
  columnar::Schema schema({{"i", columnar::ColumnType::kInt64},
                           {"d", columnar::ColumnType::kDouble}});
  columnar::RecordBatch batch(schema);
  batch.mutable_column(0)->AppendInt64(5);
  batch.mutable_column(1)->AppendDouble(2.5);

  Query q;
  q.clauses.push_back(Clause::Of(SimplePredicate::RangeLess("i", 6)));
  q.clauses.push_back(Clause::Of(SimplePredicate::RangeLess("d", 2.6)));
  auto c = CompiledTypedQuery::Compile(q, schema);
  EXPECT_TRUE(c->Matches(batch, 0));

  Query q2;
  q2.clauses.push_back(Clause::Of(SimplePredicate::RangeLess("i", 5)));
  EXPECT_FALSE(CompiledTypedQuery::Compile(q2, schema)->Matches(batch, 0));
}

// ---------- Planner ----------

TEST(PlannerTest, SkippingIffAnyClausePushedDown) {
  PredicateRegistry registry;
  Clause pushed = Clause::Of(SimplePredicate::KeyValue("a", 1));
  Clause other = Clause::Of(SimplePredicate::KeyValue("b", 2));
  ASSERT_TRUE(registry.Register(pushed, 0.1, 1.0).ok());

  Query with_pushed;
  with_pushed.clauses = {pushed, other};
  const PlanDecision d1 = PlanQuery(with_pushed, registry);
  EXPECT_EQ(d1.kind, PlanKind::kSkippingScan);
  EXPECT_EQ(d1.predicate_ids, std::vector<uint32_t>{0});

  Query without;
  without.clauses = {other};
  const PlanDecision d2 = PlanQuery(without, registry);
  EXPECT_EQ(d2.kind, PlanKind::kFullScan);
  EXPECT_TRUE(d2.predicate_ids.empty());
}

// ---------- Executor: a full mini pipeline ----------

struct EngineFixture {
  workload::Dataset ds;
  std::vector<json::Value> parsed;
  PredicateRegistry registry;
  TableCatalog catalog;
  std::vector<Clause> pushed;

  explicit EngineFixture(size_t n = 400, bool partial = true)
      : ds(workload::GenerateWinLog({n, 21})), catalog(ds.schema) {
    for (const std::string& r : ds.records) {
      parsed.push_back(*json::Parse(r));
    }
    // Push two micro-tier predicates (sel 0.35 each).
    pushed = workload::MicroTierPredicates(0.35);
    pushed.resize(2);
    for (const Clause& c : pushed) {
      EXPECT_TRUE(registry.Register(c, 0.35, 1.0).ok());
    }
    // Annotate + load in 3 chunks.
    PartialLoader loader(ds.schema, registry.size());
    LoadStats stats;
    const size_t chunk_size = 150;
    for (size_t start = 0; start < ds.records.size(); start += chunk_size) {
      json::JsonChunk chunk;
      const size_t end = std::min(ds.records.size(), start + chunk_size);
      for (size_t i = start; i < end; ++i) {
        chunk.AppendSerialized(ds.records[i]);
      }
      BitVectorSet annotations(registry.size(), chunk.size());
      for (size_t p = 0; p < registry.size(); ++p) {
        const auto& program = registry.Get(static_cast<uint32_t>(p)).program;
        for (size_t r = 0; r < chunk.size(); ++r) {
          if (program.Matches(chunk.Record(r))) {
            annotations.mutable_vector(p)->Set(r, true);
          }
        }
      }
      EXPECT_TRUE(
          loader.IngestChunk(chunk, annotations, partial, &catalog, &stats)
              .ok());
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

TEST(ExecutorTest, FullScanMatchesBruteForce) {
  EngineFixture fx(400, /*partial=*/false);
  QueryExecutor executor(&fx.catalog, &fx.registry);
  Rng rng(23);
  const auto pool =
      workload::TemplatesFor(workload::DatasetKind::kWinLog).AllCandidates();
  for (int iter = 0; iter < 20; ++iter) {
    Query q;
    q.clauses.push_back(pool[rng.NextBounded(pool.size())]);
    if (rng.NextBool()) q.clauses.push_back(pool[rng.NextBounded(pool.size())]);
    auto result = executor.ExecuteFullScan(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, fx.BruteForceCount(q)) << q.ToSql();
    EXPECT_EQ(result->plan, PlanKind::kFullScan);
    EXPECT_EQ(result->stats.rows_evaluated, 400u);
  }
}

TEST(ExecutorTest, SkippingScanMatchesFullScanAndBruteForce) {
  EngineFixture fx(400, /*partial=*/true);
  QueryExecutor executor(&fx.catalog, &fx.registry);
  const auto other = workload::MicroTierPredicates(0.15);

  // Queries containing pushed clause(s) — the skipping-eligible shape.
  std::vector<Query> queries;
  {
    Query q;  // pushed[0] alone
    q.clauses = {fx.pushed[0]};
    queries.push_back(q);
  }
  {
    Query q;  // pushed[0] AND pushed[1]
    q.clauses = {fx.pushed[0], fx.pushed[1]};
    queries.push_back(q);
  }
  {
    Query q;  // pushed[1] AND a non-pushed clause
    q.clauses = {fx.pushed[1], other[0]};
    queries.push_back(q);
  }

  for (const Query& q : queries) {
    auto planned = executor.Execute(q);
    ASSERT_TRUE(planned.ok());
    EXPECT_EQ(planned->plan, PlanKind::kSkippingScan);
    EXPECT_EQ(planned->count, fx.BruteForceCount(q)) << q.ToSql();
    EXPECT_GT(planned->stats.rows_skipped, 0u);
  }
}

TEST(ExecutorTest, FullScanCoversRawSideline) {
  EngineFixture fx(400, /*partial=*/true);
  ASSERT_GT(fx.catalog.raw_rows(), 0u);
  QueryExecutor executor(&fx.catalog, &fx.registry);

  // A query with NO pushed-down clause must fall back to full scan and
  // still count records hiding in the raw sideline.
  const auto other = workload::MicroTierPredicates(0.15);
  Query q;
  q.clauses = {other[3]};
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, PlanKind::kFullScan);
  EXPECT_EQ(result->count, fx.BruteForceCount(q));
  EXPECT_GT(result->stats.raw_records_scanned, 0u);

  // Records the generator never writes — type-mismatched, missing and
  // null fields, and one that does not parse. The sideline scan must
  // count and hash them exactly as it does once promotion has moved them
  // into columns, with or without the raw prefilter.
  const std::string token = other[3].terms[0].operand.as_string();
  const std::vector<std::string> odd = {
      R"({"time":"2016-01-01 00:00:00","level":17,"source":"odd","info":")" +
          token + R"("})",
      R"({"level":"Error","info":null})",
      R"({"level":"Error","source":"odd"})",
      R"({"time":7,"level":"Error","info":42})",
      R"({"level":true,"info":")" + token + R"( tail"})",
      R"({"level":"Error","info":")" + token,  // unparseable
  };
  for (const std::string& record : odd) fx.catalog.mutable_raw()->Append(record);
  const uint64_t sideline = fx.catalog.raw_rows();

  std::vector<Query> queries(4);
  queries[0].clauses = {other[3]};
  queries[0].projected = {"level", "source"};
  queries[1].clauses = {Clause::Of(SimplePredicate::Exact("level", "Error"))};
  queries[1].projected = {"info", "time"};
  queries[2].clauses = {Clause::Of(SimplePredicate::Presence("info"))};
  queries[2].projected = {"info", "level", "no_such_column"};
  queries[3].clauses = {Clause::Of(SimplePredicate::Presence("time")),
                        other[3]};
  queries[3].projected = {"time"};
  // Odd records each query matches once they are columns: the int and
  // null "info" values and the non-string "level"/"time" become NULL.
  const std::vector<uint64_t> odd_matches = {2, 3, 2, 1};

  std::vector<std::vector<QueryResult>> raw_results;
  for (const bool prefilter : {false, true}) {
    ExecutorOptions options;
    options.raw_prefilter = prefilter;
    QueryExecutor scanner(&fx.catalog, &fx.registry, options);
    std::vector<QueryResult> results;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = scanner.ExecuteFullScan(queries[i]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->count, fx.BruteForceCount(queries[i]) + odd_matches[i])
          << queries[i].ToSql() << " prefilter=" << prefilter;
      EXPECT_EQ(r->projected_hashes.size(), queries[i].projected.size());
      const ScanStats& st = r->stats;
      EXPECT_EQ(st.raw_records_scanned + st.raw_records_screened_out +
                    st.raw_parse_errors,
                sideline);
      if (!prefilter) {
        EXPECT_EQ(st.raw_records_screened_out, 0u);
        EXPECT_EQ(st.raw_parse_errors, 1u);
      }
      results.push_back(std::move(r).value());
    }
    raw_results.push_back(std::move(results));
  }
  // The token query's screen rules most of the sideline out unparsed.
  EXPECT_GT(raw_results[1][0].stats.raw_records_screened_out, 0u);

  PromotionStats promotion;
  ASSERT_TRUE(PromoteRawToColumnar(&fx.catalog, fx.registry,
                                   /*annotation_epoch=*/0, &promotion)
                  .ok());
  EXPECT_EQ(promotion.promoted, sideline - 1);
  EXPECT_EQ(promotion.parse_failures, 1u);
  ASSERT_EQ(fx.catalog.raw_rows(), 1u);
  QueryExecutor promoted(&fx.catalog, &fx.registry);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = promoted.ExecuteFullScan(queries[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.raw_records_scanned, 0u);
    EXPECT_EQ(r->stats.raw_parse_errors, 1u);
    for (const std::vector<QueryResult>& raw : raw_results) {
      EXPECT_EQ(r->count, raw[i].count) << queries[i].ToSql();
      EXPECT_EQ(r->projected_hashes, raw[i].projected_hashes)
          << queries[i].ToSql();
    }
  }
}

TEST(ExecutorTest, GroupSkippingTriggersOnImpossiblePredicates) {
  // A registry predicate that matches nothing: every group's intersected
  // bitvector is all-zero, so all groups are skipped without decode.
  workload::Dataset ds = workload::GenerateWinLog({200, 31});
  PredicateRegistry registry;
  Clause impossible =
      Clause::Of(SimplePredicate::Substring("info", "zzz_never_zzz"));
  ASSERT_TRUE(registry.Register(impossible, 0.0, 1.0).ok());

  TableCatalog catalog(ds.schema);
  PartialLoader loader(ds.schema, 1);
  LoadStats stats;
  json::JsonChunk chunk;
  for (const auto& r : ds.records) chunk.AppendSerialized(r);
  // Partial loading off: everything loaded, all bits zero.
  ASSERT_TRUE(loader
                  .IngestChunk(chunk, BitVectorSet(1, chunk.size()),
                               /*partial_loading_enabled=*/false, &catalog,
                               &stats)
                  .ok());

  QueryExecutor executor(&catalog, &registry);
  Query q;
  q.clauses = {impossible};
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, PlanKind::kSkippingScan);
  EXPECT_EQ(result->count, 0u);
  EXPECT_EQ(result->stats.groups_skipped, 1u);
  EXPECT_EQ(result->stats.groups_scanned, 0u);
  EXPECT_EQ(result->stats.rows_evaluated, 0u);
  EXPECT_EQ(result->stats.rows_skipped, 200u);
}

// ---------- Zone-map skipping (classic data-skipping baseline) ----------

TEST(ZoneMapFilterTest, NumericPruning) {
  columnar::Schema schema({{"id", columnar::ColumnType::kInt64},
                           {"tag", columnar::ColumnType::kString}});
  std::vector<columnar::ZoneMap> zms(2);
  zms[0].has_minmax = true;
  zms[0].min = 100;
  zms[0].max = 199;
  zms[0].null_count = 0;
  zms[1].null_count = 0;

  Query inside;
  inside.clauses = {Clause::Of(SimplePredicate::KeyValue("id", 150))};
  EXPECT_TRUE(ZoneMapsMaySatisfy(inside, schema, zms, 100));

  Query below;
  below.clauses = {Clause::Of(SimplePredicate::KeyValue("id", 50))};
  EXPECT_FALSE(ZoneMapsMaySatisfy(below, schema, zms, 100));

  Query above;
  above.clauses = {Clause::Of(SimplePredicate::KeyValue("id", 500))};
  EXPECT_FALSE(ZoneMapsMaySatisfy(above, schema, zms, 100));

  // Range-less: min >= bound proves empty.
  Query range_empty;
  range_empty.clauses = {Clause::Of(SimplePredicate::RangeLess("id", 100))};
  EXPECT_FALSE(ZoneMapsMaySatisfy(range_empty, schema, zms, 100));
  Query range_ok;
  range_ok.clauses = {Clause::Of(SimplePredicate::RangeLess("id", 101))};
  EXPECT_TRUE(ZoneMapsMaySatisfy(range_ok, schema, zms, 100));

  // Disjunction: only empty if ALL terms are provably empty.
  Query disj;
  disj.clauses = {Clause::Or({SimplePredicate::KeyValue("id", 50),
                              SimplePredicate::KeyValue("id", 150)})};
  EXPECT_TRUE(ZoneMapsMaySatisfy(disj, schema, zms, 100));
  Query disj_empty;
  disj_empty.clauses = {Clause::Or({SimplePredicate::KeyValue("id", 50),
                                    SimplePredicate::KeyValue("id", 999)})};
  EXPECT_FALSE(ZoneMapsMaySatisfy(disj_empty, schema, zms, 100));

  // String columns have no min/max: never pruned.
  Query str;
  str.clauses = {Clause::Of(SimplePredicate::Exact("tag", "zzz"))};
  EXPECT_TRUE(ZoneMapsMaySatisfy(str, schema, zms, 100));

  // All-null columns report "maybe": block statistics carry no min/max
  // evidence for them, and null-vs-missing semantics belong to the
  // evaluator, never to the pruning filter.
  std::vector<columnar::ZoneMap> all_null = zms;
  all_null[1].null_count = 100;
  Query presence;
  presence.clauses = {Clause::Of(SimplePredicate::Presence("tag"))};
  EXPECT_TRUE(ZoneMapsMaySatisfy(presence, schema, all_null, 100));

  // Empty group satisfies nothing.
  EXPECT_FALSE(ZoneMapsMaySatisfy(inside, schema, zms, 0));
}

TEST(ZoneMapFilterTest, AllNullAndNanColumnsReportMaybe) {
  columnar::Schema schema({{"score", columnar::ColumnType::kDouble}});

  // All-null numeric column: no minmax is ever computed, so every
  // predicate kind must come back "maybe".
  std::vector<columnar::ZoneMap> all_null(1);
  all_null[0].null_count = 64;
  Query value;
  value.clauses = {Clause::Of(SimplePredicate::KeyValue("score", 3))};
  Query range;
  range.clauses = {Clause::Of(SimplePredicate::RangeLess("score", 3))};
  Query presence;
  presence.clauses = {Clause::Of(SimplePredicate::Presence("score"))};
  EXPECT_TRUE(ZoneMapsMaySatisfy(value, schema, all_null, 64));
  EXPECT_TRUE(ZoneMapsMaySatisfy(range, schema, all_null, 64));
  EXPECT_TRUE(ZoneMapsMaySatisfy(presence, schema, all_null, 64));

  // NaN-poisoned minmax (legacy bytes written before the writer withheld
  // ranges from NaN-containing columns): unordered bounds prove nothing.
  std::vector<columnar::ZoneMap> nan_range(1);
  nan_range[0].has_minmax = true;
  nan_range[0].min = std::numeric_limits<double>::quiet_NaN();
  nan_range[0].max = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(ZoneMapsMaySatisfy(value, schema, nan_range, 64));
  EXPECT_TRUE(ZoneMapsMaySatisfy(range, schema, nan_range, 64));
}

TEST(ZoneMapFilterTest, ComputeZoneMapsWithholdsRangeFromNanColumns) {
  columnar::Schema schema({{"score", columnar::ColumnType::kDouble}});
  columnar::RecordBatch batch(schema);
  columnar::ColumnVector* col = batch.mutable_column(0);
  // NaN first would poison a naive running min/max; NaN in the middle
  // used to be silently skipped. Both must now disable the range.
  col->AppendDouble(std::numeric_limits<double>::quiet_NaN());
  col->AppendDouble(5.0);
  col->AppendDouble(100.0);
  const std::vector<columnar::ZoneMap> maps = columnar::ComputeZoneMaps(batch);
  ASSERT_EQ(maps.size(), 1u);
  EXPECT_FALSE(maps[0].has_minmax);

  columnar::RecordBatch middle(schema);
  columnar::ColumnVector* col2 = middle.mutable_column(0);
  col2->AppendDouble(5.0);
  col2->AppendDouble(std::numeric_limits<double>::quiet_NaN());
  col2->AppendDouble(100.0);
  const std::vector<columnar::ZoneMap> maps2 =
      columnar::ComputeZoneMaps(middle);
  EXPECT_FALSE(maps2[0].has_minmax);

  // NaN-free columns keep their range.
  columnar::RecordBatch clean(schema);
  columnar::ColumnVector* col3 = clean.mutable_column(0);
  col3->AppendDouble(5.0);
  col3->AppendNull();
  col3->AppendDouble(100.0);
  const std::vector<columnar::ZoneMap> maps3 =
      columnar::ComputeZoneMaps(clean);
  ASSERT_TRUE(maps3[0].has_minmax);
  EXPECT_EQ(maps3[0].min, 5.0);
  EXPECT_EQ(maps3[0].max, 100.0);
  EXPECT_EQ(maps3[0].null_count, 1u);
}

TEST(ExecutorTest, NanAndNullColumnsAgreeWithOracleUnderZoneMaps) {
  // End-to-end pin of the NaN/null semantics: a table whose double
  // column holds NaN, nulls, and ordinary values must produce identical
  // counts with zone maps on and off, under both evaluation modes.
  columnar::Schema schema({{"id", columnar::ColumnType::kInt64},
                           {"score", columnar::ColumnType::kDouble}});
  PredicateRegistry registry;
  TableCatalog catalog(schema);
  columnar::TableWriter writer(schema);
  columnar::RecordBatch batch(schema);
  uint64_t rows = 0;
  for (int g = 0; g < 3; ++g) {
    columnar::RecordBatch group(schema);
    for (int r = 0; r < 50; ++r) {
      group.mutable_column(0)->AppendInt64(g * 50 + r);
      if (r % 7 == 0) {
        group.mutable_column(1)->AppendNull();
      } else if (r % 11 == 0) {
        group.mutable_column(1)->AppendDouble(
            std::numeric_limits<double>::quiet_NaN());
      } else {
        group.mutable_column(1)->AppendDouble(r * 1.5);
      }
      ++rows;
    }
    ASSERT_TRUE(writer.AppendRowGroup(group, BitVectorSet()).ok());
  }
  catalog.AddSegment(std::move(writer).Finish(), rows);

  std::vector<Query> queries(3);
  queries[0].clauses = {Clause::Of(SimplePredicate::KeyValue("score", 6))};
  queries[1].clauses = {Clause::Of(SimplePredicate::RangeLess("score", 10))};
  queries[2].clauses = {Clause::Of(SimplePredicate::Presence("score"))};
  for (const QueryEvalMode mode :
       {QueryEvalMode::kVectorized, QueryEvalMode::kRowwise}) {
    ExecutorOptions with_zm;
    with_zm.use_zone_maps = true;
    with_zm.query_eval = mode;
    ExecutorOptions without_zm = with_zm;
    without_zm.use_zone_maps = false;
    QueryExecutor exec_zm(&catalog, &registry, with_zm);
    QueryExecutor exec_plain(&catalog, &registry, without_zm);
    for (const Query& q : queries) {
      auto a = exec_zm.Execute(q);
      auto b = exec_plain.Execute(q);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->count, b->count) << q.ToSql();
    }
  }
}

TEST(ExecutorTest, ZoneMapSkippingOnClusteredDataPreservesCounts) {
  // YCSB documents carry a sequential id, so per-chunk row groups have
  // disjoint id ranges — the classic clustered case zone maps excel at.
  workload::Dataset ds = workload::GenerateYcsb({600, 51});
  PredicateRegistry registry;
  TableCatalog catalog(ds.schema);
  PartialLoader loader(ds.schema, 0);
  LoadStats stats;
  const size_t chunk_size = 100;
  for (size_t start = 0; start < ds.records.size(); start += chunk_size) {
    json::JsonChunk chunk;
    const size_t end = std::min(ds.records.size(), start + chunk_size);
    for (size_t i = start; i < end; ++i) chunk.AppendSerialized(ds.records[i]);
    ASSERT_TRUE(loader.IngestChunk(chunk, BitVectorSet(), true, &catalog,
                                   &stats)
                    .ok());
  }

  Query q;
  q.clauses = {Clause::Of(SimplePredicate::KeyValue("id", 250))};

  ExecutorOptions with_zm;
  with_zm.use_zone_maps = true;
  ExecutorOptions without_zm;
  without_zm.use_zone_maps = false;
  QueryExecutor exec_zm(&catalog, &registry, with_zm);
  QueryExecutor exec_plain(&catalog, &registry, without_zm);

  auto r_zm = exec_zm.Execute(q);
  auto r_plain = exec_plain.Execute(q);
  ASSERT_TRUE(r_zm.ok());
  ASSERT_TRUE(r_plain.ok());
  EXPECT_EQ(r_zm->count, 1u);
  EXPECT_EQ(r_plain->count, 1u);
  // 6 groups; id=250 lives only in group 2 -> 5 groups pruned by zone maps.
  EXPECT_EQ(r_zm->stats.groups_skipped_zonemap, 5u);
  EXPECT_EQ(r_zm->stats.groups_scanned, 1u);
  EXPECT_EQ(r_plain->stats.groups_skipped_zonemap, 0u);
  EXPECT_EQ(r_plain->stats.groups_scanned, 6u);
}

TEST(ExecutorTest, ZoneMapsNeverChangeResults) {
  // Randomized agreement check across predicate kinds.
  workload::Dataset ds = workload::GenerateYelp({400, 53});
  PredicateRegistry registry;
  TableCatalog catalog(ds.schema);
  PartialLoader loader(ds.schema, 0);
  LoadStats stats;
  json::JsonChunk chunk;
  for (const auto& r : ds.records) chunk.AppendSerialized(r);
  ASSERT_TRUE(
      loader.IngestChunk(chunk, BitVectorSet(), true, &catalog, &stats).ok());

  const auto pool =
      workload::TemplatesFor(workload::DatasetKind::kYelp).AllCandidates();
  ExecutorOptions off;
  off.use_zone_maps = false;
  QueryExecutor exec_zm(&catalog, &registry);
  QueryExecutor exec_plain(&catalog, &registry, off);
  Rng rng(57);
  for (int iter = 0; iter < 25; ++iter) {
    Query q;
    q.clauses = {pool[rng.NextBounded(pool.size())]};
    if (rng.NextBool()) q.clauses.push_back(pool[rng.NextBounded(pool.size())]);
    auto a = exec_zm.Execute(q);
    auto b = exec_plain.Execute(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->count, b->count) << q.ToSql();
  }
}

TEST(ExecutorTest, SkippingRequiresIds) {
  workload::Dataset ds = workload::GenerateWinLog({10, 33});
  PredicateRegistry registry;
  TableCatalog catalog(ds.schema);
  QueryExecutor executor(&catalog, &registry);
  Query q;
  q.clauses.push_back(Clause::Of(SimplePredicate::Presence("info")));
  EXPECT_TRUE(executor.ExecuteWithSkipping(q, {}).status().IsInvalidArgument());
}

TEST(ExecutorTest, EmptyCatalogYieldsZero) {
  columnar::Schema schema({{"info", columnar::ColumnType::kString}});
  TableCatalog catalog(schema);
  PredicateRegistry registry;
  QueryExecutor executor(&catalog, &registry);
  Query q;
  q.clauses.push_back(Clause::Of(SimplePredicate::Presence("info")));
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0u);
}

}  // namespace
}  // namespace ciao
