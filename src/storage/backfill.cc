#include "storage/backfill.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "storage/jit_loader.h"
#include "storage/rewrite.h"

namespace ciao {

namespace {

/// Rows matching >= 1 new predicate first, then the rest, each in input
/// order and in a partition of its own. The all-zero "cold" groups are
/// exactly what the new epoch's skipping scans drop without decoding a
/// column — which is how a backfilled catalog matches a cold-reloaded
/// one's scan cost despite retaining rows the old epoch loaded. Row order
/// within a segment carries no semantics (annotations and zone maps are
/// rewritten alongside), and the partitions re-coalesce across input
/// groups, so repeated re-plans re-partition instead of fragmenting.
RowPartitions AnyMatchFirst(const std::vector<RewriteGroup>& groups) {
  RowPartitions partitions(2);
  for (size_t g = 0; g < groups.size(); ++g) {
    const BitVector any = groups[g].bits.UnionAll();
    for (size_t r = 0; r < any.size(); ++r) {
      partitions[any.Get(r) ? 0 : 1].push_back(
          {static_cast<uint32_t>(g), static_cast<uint32_t>(r)});
    }
  }
  return partitions;
}

/// A screen admitting the sideline records that may satisfy at least one
/// registered predicate: one clause ORing every registered clause's terms.
Query AnyRegisteredPredicate(const PredicateRegistry& registry) {
  Clause any;
  for (const RegisteredPredicate& p : registry.predicates()) {
    any.terms.insert(any.terms.end(), p.clause.terms.begin(),
                     p.clause.terms.end());
  }
  Query query;
  query.clauses = {std::move(any)};
  return query;
}

}  // namespace

Status BackfillEpochAnnotations(TableCatalog* catalog,
                                const PredicateRegistry& registry,
                                uint64_t annotation_epoch,
                                BackfillStats* stats) {
  ScopedTimer timer(&stats->seconds);
  if (registry.empty()) {
    // No pushed-down predicates: no skipping scans can be planned under
    // the new epoch, so stale annotations are never consulted and the
    // sideline stays valid for full scans.
    return Status::OK();
  }

  for (const SegmentRef& segment : catalog->SnapshotSegments()) {
    if (segment->annotation_epoch == annotation_epoch) continue;
    RewriteResult rewrite;
    CIAO_RETURN_IF_ERROR(RewriteSegments(
        catalog, {segment}, registry, annotation_epoch, AnyMatchFirst,
        columnar::ClusteredSegmentWriter(
            catalog->schema(), registry.size(), kRewriteRowsPerGroup,
            /*groups_per_file=*/SIZE_MAX),
        &rewrite));
    stats->groups_rebuilt += rewrite.groups_read;
    stats->rows_reannotated += rewrite.rows;
    if (rewrite.published) ++stats->segments_rebuilt;
  }

  // The promoted segment is born in the new id space and was not in the
  // sweep's snapshot above, so nothing rewrites it again.
  std::lock_guard<std::mutex> restructure(catalog->restructure_mu());
  PromotionStats promotion;
  CIAO_RETURN_IF_ERROR(PromoteSideline(catalog,
                                       AnyRegisteredPredicate(registry),
                                       registry, annotation_epoch,
                                       &promotion));
  stats->raw_promoted += promotion.promoted;
  stats->raw_kept += promotion.screened_out + promotion.parse_failures;
  return Status::OK();
}

}  // namespace ciao
