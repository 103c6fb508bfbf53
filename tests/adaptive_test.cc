// The adaptive re-optimization runtime: epoch-versioned plans, the
// drift-triggered ReplanController, incremental annotation backfill, and
// query-driven JIT promotion. The load-bearing assertions:
//
//  * a workload shift triggers a re-plan that installs a new epoch with a
//    different selected clause set,
//  * every count after the re-plan equals a cold full reload's (and brute
//    force), with and without concurrent queries (run under TSan in CI),
//  * backfilled annotations carry no false negatives w.r.t. exact typed
//    evaluation, and rebuilt segments match it exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "columnar/file_reader.h"
#include "columnar/file_writer.h"
#include "core/plan_epoch.h"
#include "core/replan.h"
#include "core/system.h"
#include "engine/typed_eval.h"
#include "json/parser.h"
#include "predicate/semantic_eval.h"
#include "storage/backfill.h"
#include "storage/relayout.h"
#include "workload/dataset.h"
#include "workload/templates.h"

namespace ciao {
namespace {

uint64_t BruteForceCount(const std::vector<std::string>& records,
                         const Query& q) {
  uint64_t count = 0;
  for (const std::string& r : records) {
    auto v = json::Parse(r);
    if (v.ok() && EvaluateQuery(q, *v)) ++count;
  }
  return count;
}

/// Single-clause queries over pool[first..first+n).
Workload SliceWorkload(const std::vector<Clause>& pool, size_t first,
                       size_t n, const std::string& prefix) {
  Workload wl;
  for (size_t i = 0; i < n; ++i) {
    Query q;
    q.name = prefix + std::to_string(i);
    q.clauses = {pool[first + i]};
    wl.queries.push_back(std::move(q));
  }
  return wl;
}

CiaoConfig AdaptiveConfig() {
  CiaoConfig config;
  config.budget_us = 50.0;  // room to push several predicates
  config.chunk_size = 64;
  config.sample_size = 300;
  config.adaptive.enabled = true;
  config.adaptive.replan_interval = 6;
  config.adaptive.min_queries = 6;
  config.adaptive.divergence_threshold = 0.3;
  config.adaptive.history_half_life = 8;  // forget the planned mix fast
  config.adaptive.recalibrate = true;
  return config;
}

// ---------- EpochManager ----------

TEST(EpochManagerTest, InstallRequiresStrictlyIncreasingIds) {
  PlanningOutcome outcome;
  auto e0 = PlanEpoch::Make(0, std::move(outcome));
  EpochManager epochs(e0);
  EXPECT_EQ(epochs.current_id(), 0u);

  PlanningOutcome o1;
  EXPECT_TRUE(epochs.Install(PlanEpoch::Make(1, std::move(o1))));
  EXPECT_EQ(epochs.current_id(), 1u);

  // Same id and lower id are rejected (a stale re-planner must not roll
  // the plan back); null is rejected.
  PlanningOutcome o2;
  EXPECT_FALSE(epochs.Install(PlanEpoch::Make(1, std::move(o2))));
  PlanningOutcome o3;
  EXPECT_FALSE(epochs.Install(PlanEpoch::Make(0, std::move(o3))));
  EXPECT_FALSE(epochs.Install(nullptr));
  EXPECT_EQ(epochs.current_id(), 1u);
}

// ---------- Backfill ----------

/// Asserts the catalog's annotations against row-wise typed evaluation:
/// bit-exact on every segment marked `annotations_exact` (rewritten
/// segments), no false negatives on the rest (client-filter bits may
/// over-approximate).
void CheckAnnotationsAgainstTypedEval(const TableCatalog& catalog,
                                      const PredicateRegistry& registry,
                                      uint64_t expected_epoch) {
  for (const SegmentRef& segment : catalog.SnapshotSegments()) {
    EXPECT_EQ(segment->annotation_epoch, expected_epoch);
    auto reader = columnar::TableReader::OpenBorrowed(segment->file_bytes);
    ASSERT_TRUE(reader.ok());
    for (size_t g = 0; g < reader->num_row_groups(); ++g) {
      auto meta = reader->ReadMeta(g);
      ASSERT_TRUE(meta.ok());
      ASSERT_EQ(meta->annotations.num_predicates(), registry.size());
      auto batch = reader->ReadBatch(g);
      ASSERT_TRUE(batch.ok());
      for (size_t p = 0; p < registry.size(); ++p) {
        Query probe;
        probe.clauses = {registry.Get(static_cast<uint32_t>(p)).clause};
        auto compiled = CompiledTypedQuery::Compile(probe, catalog.schema());
        ASSERT_TRUE(compiled.ok());
        for (size_t r = 0; r < meta->num_rows; ++r) {
          const bool truth = compiled->Matches(*batch, r);
          const bool bit = meta->annotations.vector(p).Get(r);
          if (truth) {
            EXPECT_TRUE(bit) << "FALSE NEGATIVE in annotations: "
                             << probe.ToSql() << " row " << r;
          }
          if (segment->annotations_exact) {
            EXPECT_EQ(bit, truth)
                << "rewritten segment bits must be exact: " << probe.ToSql()
                << " row " << r;
          }
        }
      }
    }
  }
}

TEST(BackfillTest, RebuildsSegmentsAndPromotesMatchingSideline) {
  const workload::Dataset ds = workload::GenerateWinLog({500, 77});
  const auto pool = workload::MicroTierPredicates(0.15);

  // Ingest under a registry pushing pool[0..1] with partial loading.
  PredicateRegistry old_registry;
  ASSERT_TRUE(old_registry.Register(pool[0], 0.15, 0.5).ok());
  ASSERT_TRUE(old_registry.Register(pool[1], 0.15, 0.5).ok());
  TableCatalog catalog(ds.schema);
  {
    PartialLoader loader(ds.schema, old_registry.size(), /*epoch=*/0);
    ClientFilter filter(&old_registry);
    LoadStats ls;
    PrefilterStats ps;
    for (size_t start = 0; start < ds.records.size(); start += 100) {
      const size_t end = std::min(start + 100, ds.records.size());
      json::JsonChunk chunk;
      for (size_t i = start; i < end; ++i) {
        chunk.AppendSerialized(ds.records[i]);
      }
      ASSERT_TRUE(loader
                      .IngestChunk(chunk, filter.Evaluate(chunk, &ps), true,
                                   &catalog, &ls)
                      .ok());
    }
  }
  const uint64_t sideline_before = catalog.raw_rows();
  ASSERT_GT(sideline_before, 0u);
  const uint64_t segments_before = catalog.num_segments();

  // New epoch pushes pool[2..3] — predicates the old epoch never saw.
  PredicateRegistry new_registry;
  ASSERT_TRUE(new_registry.Register(pool[2], 0.15, 0.5).ok());
  ASSERT_TRUE(new_registry.Register(pool[3], 0.15, 0.5).ok());

  BackfillStats stats;
  ASSERT_TRUE(
      BackfillEpochAnnotations(&catalog, new_registry, /*epoch=*/1, &stats)
          .ok());
  EXPECT_EQ(stats.segments_rebuilt, segments_before);
  EXPECT_GT(stats.rows_reannotated, 0u);
  // ~15% selectivity per new predicate: some sidelined records match and
  // must have been promoted, the rest stay raw.
  EXPECT_GT(stats.raw_promoted, 0u);
  EXPECT_GT(stats.raw_kept, 0u);
  EXPECT_EQ(stats.raw_promoted + stats.raw_kept, sideline_before);
  EXPECT_EQ(catalog.raw_rows(), stats.raw_kept);

  // No sideline record may match a new predicate any more (the planner
  // invariant backfill restores for the new epoch).
  const auto raw = catalog.SnapshotRaw();
  for (size_t i = 0; i < raw->size(); ++i) {
    auto v = json::Parse(raw->Record(i));
    ASSERT_TRUE(v.ok());
    for (size_t p = 0; p < new_registry.size(); ++p) {
      EXPECT_FALSE(EvaluateClause(
          new_registry.Get(static_cast<uint32_t>(p)).clause, *v));
    }
  }

  // Rebuilt segments carry exact bits; the promoted segment carries
  // client-filter bits, which must at least have no false negatives.
  CheckAnnotationsAgainstTypedEval(catalog, new_registry, /*epoch=*/1);
  uint64_t exact_segments = 0;
  for (const SegmentRef& segment : catalog.SnapshotSegments()) {
    if (!segment->annotations_exact) continue;
    ++exact_segments;
    // No rebuilt group mixes rows matching a new predicate with rows
    // matching none: the all-zero groups are what skipping scans drop
    // without a decode.
    auto reader = columnar::TableReader::OpenBorrowed(segment->file_bytes);
    ASSERT_TRUE(reader.ok());
    for (size_t g = 0; g < reader->num_row_groups(); ++g) {
      auto meta = reader->ReadMeta(g);
      ASSERT_TRUE(meta.ok());
      const size_t matching = meta->annotations.UnionAll().CountOnes();
      EXPECT_TRUE(matching == 0 || matching == meta->num_rows)
          << "group " << g << " mixes " << matching << " matching rows of "
          << meta->num_rows;
    }
  }
  EXPECT_EQ(exact_segments, segments_before);

  // Counts under the new epoch equal brute force, via skipping scans.
  QueryExecutor executor(&catalog, &new_registry);
  for (size_t p = 0; p < new_registry.size(); ++p) {
    Query q;
    q.clauses = {new_registry.Get(static_cast<uint32_t>(p)).clause};
    auto result =
        executor.Execute(q, EpochView{&new_registry, /*epoch_id=*/1});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan, PlanKind::kSkippingScan);
    EXPECT_EQ(result->count, BruteForceCount(ds.records, q)) << q.ToSql();
  }
}

TEST(RewriteTest, RewritesNeverLaunderCorruption) {
  // A heap segment whose int64 payload lost a bit in memory. Re-layout
  // and backfill both seal their output under fresh CRCs, so they must
  // refuse to read bytes that fail their own: Corruption, catalog
  // untouched.
  const columnar::Schema schema({{"id", columnar::ColumnType::kInt64},
                                 {"tag", columnar::ColumnType::kString}});
  PredicateRegistry registry;
  ASSERT_TRUE(
      registry.Register(Clause::Of(SimplePredicate::Exact("tag", "hot")), 0.5,
                        1.0)
          .ok());
  constexpr int64_t kBase = 0x0123456789ABCDEF;
  const auto make_segment = [&] {
    columnar::RecordBatch batch(schema);
    BitVectorSet bits(registry.size(), 64);
    for (size_t i = 0; i < 64; ++i) {
      batch.mutable_column(0)->AppendInt64(kBase + static_cast<int64_t>(i));
      batch.mutable_column(1)->AppendString(i % 2 == 0 ? "hot" : "cold");
      bits.mutable_vector(0)->Set(i, i % 2 == 0);
    }
    columnar::TableWriter writer(schema);
    EXPECT_TRUE(writer.AppendRowGroup(batch, bits).ok());
    return std::move(writer).Finish();
  };
  std::string corrupt = make_segment();
  // Row 7's value is neither the group's min nor its max, so its bytes
  // occur once: in the plain-encoded payload.
  const int64_t needle_value = kBase + 7;
  const std::string needle(reinterpret_cast<const char*>(&needle_value),
                           sizeof(needle_value));
  const size_t pos = corrupt.find(needle);
  ASSERT_NE(pos, std::string::npos);
  ASSERT_EQ(corrupt.find(needle, pos + 1), std::string::npos);
  corrupt[pos] ^= 0x01;

  TableCatalog catalog(schema);
  catalog.AddSegment(std::move(corrupt), 64, /*annotation_epoch=*/0);
  catalog.AddSegment(make_segment(), 64, /*annotation_epoch=*/0);
  const std::vector<SegmentRef> before = catalog.SnapshotSegments();

  RelayoutStats relayout_stats;
  bool relaid = true;
  const Status relayout = RelayoutSegments(
      &catalog, registry, {HotPredicate{0, 1.0}}, /*annotation_epoch=*/0,
      RelayoutOptions{}, nullptr, &relayout_stats, &relaid);
  EXPECT_TRUE(relayout.IsCorruption()) << relayout.ToString();
  EXPECT_FALSE(relaid);
  EXPECT_EQ(catalog.SnapshotSegments(), before);

  BackfillStats backfill_stats;
  const Status backfill = BackfillEpochAnnotations(
      &catalog, registry, /*annotation_epoch=*/1, &backfill_stats);
  EXPECT_TRUE(backfill.IsCorruption()) << backfill.ToString();
  EXPECT_EQ(catalog.SnapshotSegments(), before);
}

TEST(BackfillTest, StaleAnnotationsAreNeverTrusted) {
  // A segment written under epoch 0 must not satisfy a skipping scan
  // planned against epoch 1 via its (wrong id-space) bits: the executor
  // falls back to verifying every row of that segment.
  const workload::Dataset ds = workload::GenerateWinLog({200, 33});
  const auto pool = workload::MicroTierPredicates(0.15);

  PredicateRegistry registry_a;  // epoch 0 pushes pool[0]
  ASSERT_TRUE(registry_a.Register(pool[0], 0.15, 0.5).ok());
  PredicateRegistry registry_b;  // epoch 1 pushes pool[1]
  ASSERT_TRUE(registry_b.Register(pool[1], 0.15, 0.5).ok());

  TableCatalog catalog(ds.schema);
  PartialLoader loader(ds.schema, registry_a.size(), /*epoch=*/0);
  ClientFilter filter(&registry_a);
  LoadStats ls;
  PrefilterStats ps;
  json::JsonChunk chunk;
  for (const std::string& r : ds.records) chunk.AppendSerialized(r);
  // Load EVERYTHING (partial loading off) so the sideline plays no role:
  // this isolates the stale-bits question.
  ASSERT_TRUE(loader
                  .IngestChunk(chunk, filter.Evaluate(chunk, &ps), false,
                               &catalog, &ls)
                  .ok());

  Query q;
  q.clauses = {pool[1]};
  QueryExecutor executor(&catalog, &registry_b);
  // Epoch-1 view over epoch-0 segments: bits ignored, rows verified.
  auto result = executor.Execute(q, EpochView{&registry_b, /*epoch_id=*/1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, PlanKind::kSkippingScan);
  EXPECT_GT(result->stats.groups_stale_annotations, 0u);
  EXPECT_EQ(result->count, BruteForceCount(ds.records, q));

  // Same view with a matching epoch id would (wrongly) trust the bits —
  // epoch id 0 here means "the registry that wrote these bits", which
  // for registry_b it is not. The executor cannot detect that lie; the
  // epoch discipline (ids handed out by EpochManager) is what prevents
  // it. This assertion documents the contract boundary.
  auto trusted = executor.Execute(q, EpochView{&registry_b, /*epoch_id=*/0});
  ASSERT_TRUE(trusted.ok());
  EXPECT_EQ(trusted->stats.groups_stale_annotations, 0u);
}

// ---------- End-to-end drift ----------

TEST(AdaptiveDriftTest, ReplanInstallsNewEpochAndKeepsResultsExact) {
  const workload::Dataset ds = workload::GenerateWinLog({600, 19});
  const auto pool = workload::MicroTierPredicates(0.15);

  // Planned for workload A (pool[0..2]); live traffic is workload B
  // (pool[4..6]) — disjoint clause sets, maximal drift.
  const Workload workload_a = SliceWorkload(pool, 0, 3, "a");
  const Workload workload_b = SliceWorkload(pool, 4, 3, "b");

  CiaoConfig config = AdaptiveConfig();
  auto system = CiaoSystem::Bootstrap(ds.schema, workload_a, ds.records,
                                      config, CostModel::Default());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->IngestRecords(ds.records).ok());
  ASSERT_GT((*system)->catalog().raw_rows(), 0u)
      << "partial loading should sideline records under workload A";

  const auto old_keys = (*system)->epoch()->plan().SelectedKeys();
  ASSERT_FALSE(old_keys.empty());

  // Issue workload-B queries until a re-plan installs (bounded rounds).
  bool replanned = false;
  for (int round = 0; round < 20 && !replanned; ++round) {
    for (const Query& q : workload_b.queries) {
      auto result = (*system)->ExecuteQuery(q);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->count, BruteForceCount(ds.records, q)) << q.ToSql();
    }
    replanned = (*system)->replans_installed() > 0;
  }
  ASSERT_TRUE(replanned) << "drift never triggered a re-plan";

  const auto epoch = (*system)->epoch();
  EXPECT_GE(epoch->id, 1u);
  const auto new_keys = epoch->plan().SelectedKeys();
  EXPECT_NE(new_keys, old_keys)
      << "the re-plan should select workload B's clauses";
  // The new epoch serves B with skipping scans.
  for (const Query& q : workload_b.queries) {
    auto result = (*system)->ExecuteQuery(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan, PlanKind::kSkippingScan) << q.ToSql();
    EXPECT_EQ(result->count, BruteForceCount(ds.records, q)) << q.ToSql();
  }
  // Old workload A queries stay correct (possibly via full scans now).
  for (const Query& q : workload_a.queries) {
    auto result = (*system)->ExecuteQuery(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, BruteForceCount(ds.records, q)) << q.ToSql();
  }

  // Results identical to a cold full reload: a fresh static system
  // bootstrapped for workload B over the same records.
  CiaoConfig cold_config;
  cold_config.budget_us = config.budget_us;
  cold_config.chunk_size = config.chunk_size;
  cold_config.sample_size = config.sample_size;
  auto cold = CiaoSystem::Bootstrap(ds.schema, workload_b, ds.records,
                                    cold_config, CostModel::Default());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*cold)->IngestRecords(ds.records).ok());
  for (const Query& q : workload_b.queries) {
    auto adaptive_result = (*system)->ExecuteQuery(q);
    auto cold_result = (*cold)->ExecuteQuery(q);
    ASSERT_TRUE(adaptive_result.ok());
    ASSERT_TRUE(cold_result.ok());
    EXPECT_EQ(adaptive_result->count, cold_result->count) << q.ToSql();
  }

  // Backfilled annotations: exact on rewritten segments, no false
  // negatives anywhere, and every segment re-tagged with the installed
  // epoch. Snapshot afresh — the A+B query mix above may have triggered a
  // further re-plan.
  const auto final_epoch = (*system)->epoch();
  CheckAnnotationsAgainstTypedEval((*system)->catalog(),
                                   final_epoch->registry(), final_epoch->id);

  const EndToEndReport report = (*system)->BuildReport("drift");
  EXPECT_EQ(report.plan_epoch, final_epoch->id);
  EXPECT_GE(report.replans_installed, 1u);
}

TEST(AdaptiveDriftTest, ConcurrentQueriesDuringReplanStayConsistent) {
  // Several threads hammer workload-B queries while the drift trigger
  // re-plans inline on one of them: every observed count must be exact,
  // before, during, and after the epoch flip. Run under TSan in CI.
  const workload::Dataset ds = workload::GenerateWinLog({300, 55});
  const auto pool = workload::MicroTierPredicates(0.15);
  const Workload workload_a = SliceWorkload(pool, 0, 2, "a");
  const Workload workload_b = SliceWorkload(pool, 4, 2, "b");

  CiaoConfig config = AdaptiveConfig();
  config.adaptive.replan_interval = 8;
  config.adaptive.min_queries = 8;
  auto system = CiaoSystem::Bootstrap(ds.schema, workload_a, ds.records,
                                      config, CostModel::Default());
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->IngestRecords(ds.records).ok());

  std::vector<uint64_t> expected;
  for (const Query& q : workload_b.queries) {
    expected.push_back(BruteForceCount(ds.records, q));
  }

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 30;
  std::atomic<int> wrong_counts{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const size_t qi = (static_cast<size_t>(t) + i) % workload_b.queries.size();
        auto result = (*system)->ExecuteQuery(workload_b.queries[qi]);
        if (!result.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (result->count != expected[qi]) {
          wrong_counts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_counts.load(), 0);
  EXPECT_GE((*system)->replans_installed(), 1u)
      << "the drifted load should have re-planned at least once";

  // And the system still answers exactly afterwards.
  for (size_t i = 0; i < workload_b.queries.size(); ++i) {
    auto result = (*system)->ExecuteQuery(workload_b.queries[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, expected[i]);
  }
}

TEST(AdaptiveDefaultsTest, DisabledAdaptiveKeepsLegacyBehaviour) {
  // adaptive.enabled=false (default): no controller, epoch pinned at 0,
  // no promotions, reports identical in shape to the legacy pipeline.
  const workload::Dataset ds = workload::GenerateWinLog({200, 13});
  const auto pool = workload::MicroTierPredicates(0.15);
  const Workload wl = SliceWorkload(pool, 0, 2, "q");

  CiaoConfig config;
  config.budget_us = 10.0;
  config.sample_size = 200;
  auto system = CiaoSystem::Bootstrap(ds.schema, wl, ds.records, config,
                                      CostModel::Default());
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->IngestRecords(ds.records).ok());
  EXPECT_EQ((*system)->replan_controller(), nullptr);

  for (int round = 0; round < 30; ++round) {
    for (const Query& q : wl.queries) {
      auto result = (*system)->ExecuteQuery(q);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->count, BruteForceCount(ds.records, q));
    }
  }
  EXPECT_EQ((*system)->replans_installed(), 0u);
  EXPECT_EQ((*system)->epoch()->id, 0u);
  const EndToEndReport report = (*system)->BuildReport("legacy");
  EXPECT_EQ(report.plan_epoch, 0u);
  EXPECT_EQ(report.replans_installed, 0u);
}

// ---------- Predicate-clustered segment re-layout ----------

TEST(RelayoutTest, ForceRelayoutClustersRowsAndKeepsResultsExact) {
  const workload::Dataset ds = workload::GenerateWinLog({600, 91});
  const auto pool = workload::MicroTierPredicates(0.15);
  const Workload wl = SliceWorkload(pool, 0, 3, "q");

  CiaoConfig config = AdaptiveConfig();
  config.adaptive.relayout.enabled = true;
  config.adaptive.relayout.rows_per_group = 64;
  auto system = CiaoSystem::Bootstrap(ds.schema, wl, ds.records, config,
                                      CostModel::Default());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->IngestRecords(ds.records).ok());

  std::vector<uint64_t> expected;
  std::vector<ScanStats> before;
  for (const Query& q : wl.queries) {
    expected.push_back(BruteForceCount(ds.records, q));
    auto result = (*system)->ExecuteQuery(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, expected.back()) << q.ToSql();
    before.push_back(result->stats);
  }
  const uint64_t loaded_before = (*system)->catalog().loaded_rows();

  ReplanController* controller = (*system)->replan_controller();
  ASSERT_NE(controller, nullptr);
  auto relaid = controller->ForceRelayout();
  ASSERT_TRUE(relaid.ok()) << relaid.status().ToString();
  ASSERT_TRUE(*relaid);
  EXPECT_EQ((*system)->relayouts_performed(), 1u);
  const RelayoutStats stats = controller->relayout_stats();
  EXPECT_GT(stats.segments_read, 0u);
  EXPECT_GT(stats.segments_written, 0u);
  EXPECT_GT(stats.rows_moved, 0u);
  // The rewrite moves rows between files but must conserve them.
  EXPECT_EQ((*system)->catalog().loaded_rows(), loaded_before);
  // Spent time is charged to the regret ledger even on a forced pass.
  EXPECT_GT(controller->relayout_spent_seconds(), 0.0);

  // Counts stay exact and the clustered layout decodes no more rows than
  // the ingest-order layout did. The hottest predicate's matches become
  // one contiguous prefix, so at minimum that query must skip whole
  // groups; colder predicates may still straddle every group at this
  // tiny scale, so skipping is asserted in aggregate.
  uint64_t skipped_after = 0;
  for (size_t i = 0; i < wl.queries.size(); ++i) {
    auto result = (*system)->ExecuteQuery(wl.queries[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan, PlanKind::kSkippingScan);
    EXPECT_EQ(result->count, expected[i]) << wl.queries[i].ToSql();
    EXPECT_LE(result->stats.rows_decoded, before[i].rows_decoded);
    skipped_after +=
        result->stats.groups_skipped + result->stats.groups_skipped_zonemap;
  }
  EXPECT_GT(skipped_after, 0u)
      << "clustering should leave whole groups skippable";

  // The rewrite re-annotates from typed evaluation, so the published
  // bits must match the oracle exactly (not just superset-soundly).
  const auto epoch = (*system)->epoch();
  CheckAnnotationsAgainstTypedEval((*system)->catalog(), epoch->registry(),
                                   epoch->id);
  for (const SegmentRef& segment : (*system)->catalog().SnapshotSegments()) {
    EXPECT_TRUE(segment->annotations_exact);
  }

  // Idempotence: a second pass re-clusters already-clustered rows and
  // results stay exact.
  auto again = controller->ForceRelayout();
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < wl.queries.size(); ++i) {
    auto result = (*system)->ExecuteQuery(wl.queries[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, expected[i]);
  }
}

TEST(AdaptiveDriftTest, ConcurrentQueriesDuringRelayoutStayConsistent) {
  // The re-layout differential: several threads hammer queries while
  // another repeatedly re-clusters the catalog underneath them. Every
  // observed count must be identical before, during, and after each
  // reorganization. Run under TSan in CI.
  const workload::Dataset ds = workload::GenerateWinLog({300, 71});
  const auto pool = workload::MicroTierPredicates(0.15);
  const Workload wl = SliceWorkload(pool, 0, 2, "q");

  CiaoConfig config = AdaptiveConfig();
  config.adaptive.relayout.enabled = true;
  config.adaptive.relayout.rows_per_group = 64;
  // Keep organic re-plans out of this test: an epoch swap mid-run can
  // legitimately shrink the pushed predicate set, after which re-layout
  // (correctly) has nothing to cluster and every forced pass no-ops.
  // Replan/relayout interleaving rides the same single-flight lock and
  // is exercised by the drift tests above.
  config.adaptive.replan_interval = 1u << 20;
  config.adaptive.min_queries = 1u << 20;
  auto system = CiaoSystem::Bootstrap(ds.schema, wl, ds.records, config,
                                      CostModel::Default());
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->IngestRecords(ds.records).ok());

  std::vector<uint64_t> expected;
  for (const Query& q : wl.queries) {
    expected.push_back(BruteForceCount(ds.records, q));
  }
  ReplanController* controller = (*system)->replan_controller();
  ASSERT_NE(controller, nullptr);
  // Seed the query log so the relayout thread has hot predicates to rank.
  for (const Query& q : wl.queries) {
    ASSERT_TRUE((*system)->ExecuteQuery(q).ok());
  }

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 30;
  constexpr int kRelayouts = 5;
  std::atomic<int> wrong_counts{0};
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  // Queries start only once the re-layout thread is about to run its
  // first pass; otherwise they can all finish before it is scheduled and
  // no pass overlaps them.
  std::atomic<bool> relayout_started{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!relayout_started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kItersPerThread; ++i) {
        const size_t qi = (static_cast<size_t>(t) + i) % wl.queries.size();
        auto result = (*system)->ExecuteQuery(wl.queries[qi]);
        if (!result.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (result->count != expected[qi]) {
          wrong_counts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&] {
    relayout_started.store(true, std::memory_order_release);
    for (int i = 0; i < kRelayouts; ++i) {
      auto relaid = controller->ForceRelayout();
      if (!relaid.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      if (done.load(std::memory_order_relaxed)) break;
    }
  });
  for (size_t t = 0; t < threads.size() - 1; ++t) threads[t].join();
  done.store(true, std::memory_order_relaxed);
  threads.back().join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_counts.load(), 0);
  EXPECT_GE((*system)->relayouts_performed(), 1u);

  // And the system still answers exactly afterwards.
  for (size_t i = 0; i < wl.queries.size(); ++i) {
    auto result = (*system)->ExecuteQuery(wl.queries[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, expected[i]);
  }
}

// ---------- Query-driven JIT promotion ----------

TEST(QueryPromotionTest, FullScanPromotesOnlyUnscreenableRecords) {
  const workload::Dataset ds = workload::GenerateWinLog({400, 21});
  const auto pool = workload::MicroTierPredicates(0.15);

  // Push pool[0] so a decent sideline forms; query pool[5] (not pushed)
  // to force the full-scan + promotion path.
  PredicateRegistry registry;
  ASSERT_TRUE(registry.Register(pool[0], 0.15, 0.5).ok());
  TableCatalog catalog(ds.schema);
  {
    PartialLoader loader(ds.schema, registry.size(), /*epoch=*/0);
    ClientFilter filter(&registry);
    LoadStats ls;
    PrefilterStats ps;
    json::JsonChunk chunk;
    for (const std::string& r : ds.records) chunk.AppendSerialized(r);
    ASSERT_TRUE(loader
                    .IngestChunk(chunk, filter.Evaluate(chunk, &ps), true,
                                 &catalog, &ls)
                    .ok());
  }
  const uint64_t sideline_before = catalog.raw_rows();
  ASSERT_GT(sideline_before, 0u);

  Query q;
  q.clauses = {pool[5]};
  const uint64_t expected = BruteForceCount(ds.records, q);

  PromotionStats promotion;
  ASSERT_TRUE(
      PromoteForQuery(&catalog, q, registry, /*epoch=*/0, &promotion).ok());
  // The screen must rule out the bulk of a 15%-selectivity query's
  // sideline; survivors were parsed and promoted.
  EXPECT_GT(promotion.screened_out, 0u);
  EXPECT_GT(promotion.promoted, 0u);
  EXPECT_EQ(promotion.promoted + promotion.screened_out +
                promotion.parse_failures,
            sideline_before);
  EXPECT_EQ(catalog.raw_rows(),
            promotion.screened_out + promotion.parse_failures);

  // Counts stay exact; the promoted rows are found in columnar form, the
  // screened-out ones cannot match.
  QueryExecutor executor(&catalog, &registry);
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, PlanKind::kFullScan);
  EXPECT_EQ(result->count, expected);

  // The pushed predicate keeps working via skipping on the promoted
  // segment (its annotations were re-evaluated, not zeroed): a record
  // promoted here that matches pool[0] would otherwise be lost.
  Query pushed;
  pushed.clauses = {pool[0]};
  auto skipping = executor.Execute(pushed);
  ASSERT_TRUE(skipping.ok());
  EXPECT_EQ(skipping->plan, PlanKind::kSkippingScan);
  EXPECT_EQ(skipping->count, BruteForceCount(ds.records, pushed));

  // Idempotence: a second pass finds nothing new to promote.
  PromotionStats again;
  ASSERT_TRUE(PromoteForQuery(&catalog, q, registry, /*epoch=*/0, &again).ok());
  EXPECT_EQ(again.promoted, 0u);
}

}  // namespace
}  // namespace ciao
