#include "storage/relayout.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/timer.h"
#include "storage/rewrite.h"

namespace ciao {

namespace {

/// Row groups sealed per output file. Re-layout coalesces many one-chunk
/// ingest segments; this keeps enough output files for the parallel
/// segment scan to fan out over while amortizing per-file framing.
constexpr size_t kGroupsPerFile = 8;

/// One row's clustering key.
struct RowSlot {
  RowRef ref;
  /// Hot-predicate match bits, hottest predicate most significant.
  uint64_t signature = 0;
  bool has_key = false;
  double key = 0.0;
};

/// The first numeric schema column a hot predicate constrains with a
/// zone-map-prunable kind — the column worth sorting equal-signature rows
/// by. -1 when no hot predicate constrains a numeric column.
int PickKeyColumn(const std::vector<HotPredicate>& hot,
                  const PredicateRegistry& registry,
                  const columnar::Schema& schema) {
  for (const HotPredicate& h : hot) {
    for (const RegisteredPredicate& p : registry.predicates()) {
      if (p.id != h.id) continue;
      for (const SimplePredicate& term : p.clause.terms) {
        if (term.kind != PredicateKind::kKeyValueMatch &&
            term.kind != PredicateKind::kRangeLess) {
          continue;
        }
        if (!term.operand.is_number()) continue;
        const int idx = schema.FieldIndex(term.field);
        if (idx < 0) continue;
        const columnar::ColumnType type =
            schema.field(static_cast<size_t>(idx)).type;
        if (type == columnar::ColumnType::kInt64 ||
            type == columnar::ColumnType::kDouble) {
          return idx;
        }
      }
    }
  }
  return -1;
}

}  // namespace

std::vector<HotPredicate> RankHotPredicates(const Workload& workload,
                                            const PredicateRegistry& registry,
                                            size_t max_predicates) {
  std::unordered_map<uint32_t, double> weight;
  for (const Query& query : workload.queries) {
    for (const Clause& clause : query.clauses) {
      const RegisteredPredicate* p = registry.Find(clause);
      if (p != nullptr) weight[p->id] += query.frequency;
    }
  }
  std::vector<HotPredicate> hot;
  hot.reserve(weight.size());
  for (const auto& [id, w] : weight) hot.push_back(HotPredicate{id, w});
  std::sort(hot.begin(), hot.end(),
            [](const HotPredicate& a, const HotPredicate& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.id < b.id;
            });
  if (hot.size() > max_predicates) hot.resize(max_predicates);
  return hot;
}

Status RelayoutSegments(TableCatalog* catalog,
                        const PredicateRegistry& registry,
                        const std::vector<HotPredicate>& hot,
                        uint64_t annotation_epoch,
                        const RelayoutOptions& options,
                        const columnar::ColumnGroupLayout* column_groups,
                        RelayoutStats* stats, bool* relaid) {
  *relaid = false;
  ScopedTimer timer(&stats->seconds);
  const bool grouping = column_groups != nullptr && !column_groups->empty();
  // Without hot predicates the row permutation is the identity, which is
  // only worth a rewrite when a vertical layout is being applied.
  if ((hot.empty() || registry.empty()) && !grouping) return Status::OK();

  // Only segments already annotated for this epoch participate: their
  // bits index the registry being re-evaluated. Anything stale is
  // mid-backfill and will be rebuilt in the new id space anyway.
  std::vector<SegmentRef> inputs;
  for (SegmentRef& ref : catalog->SnapshotSegments()) {
    if (ref->annotation_epoch == annotation_epoch && ref->num_rows > 0) {
      inputs.push_back(std::move(ref));
    }
  }
  if (inputs.empty()) return Status::OK();

  const columnar::Schema& schema = catalog->schema();
  const int key_column = PickKeyColumn(hot, registry, schema);
  // Descending signature clusters the hottest predicate's matches into
  // one contiguous prefix, the next-hottest into at most two runs, and so
  // on; all-cold rows — false positives of the ingest bits included, as
  // the rewrite's bits are exact — sink to the tail. The numeric key then
  // orders each cluster so per-group min/max become tight. Stable, so the
  // permutation is deterministic. One partition: clusters may share a
  // group at their boundary.
  const RowOrder order = [&](const std::vector<RewriteGroup>& groups) {
    std::vector<RowSlot> slots;
    for (size_t g = 0; g < groups.size(); ++g) {
      const RewriteGroup& group = groups[g];
      for (size_t r = 0; r < group.batch.num_rows(); ++r) {
        RowSlot slot;
        slot.ref = {static_cast<uint32_t>(g), static_cast<uint32_t>(r)};
        for (size_t i = 0; i < hot.size(); ++i) {
          if (group.bits.vector(hot[i].id).Get(r)) {
            slot.signature |= uint64_t{1} << (hot.size() - 1 - i);
          }
        }
        if (key_column >= 0) {
          const columnar::ColumnVector& col =
              group.batch.column(static_cast<size_t>(key_column));
          if (col.IsValid(r)) {
            slot.has_key = true;
            slot.key = col.GetNumeric(r);
          }
        }
        slots.push_back(slot);
      }
    }
    std::stable_sort(slots.begin(), slots.end(),
                     [](const RowSlot& a, const RowSlot& b) {
                       if (a.signature != b.signature) {
                         return a.signature > b.signature;
                       }
                       if (a.has_key != b.has_key) return a.has_key;
                       return a.key < b.key;
                     });
    RowPartitions partitions(1);
    partitions[0].reserve(slots.size());
    for (const RowSlot& slot : slots) partitions[0].push_back(slot.ref);
    return partitions;
  };

  const size_t rows_per_group = options.rows_per_group == 0
                                    ? kRewriteRowsPerGroup
                                    : options.rows_per_group;
  RewriteResult rewrite;
  CIAO_RETURN_IF_ERROR(RewriteSegments(
      catalog, inputs, registry, annotation_epoch, order,
      columnar::ClusteredSegmentWriter(
          schema, registry.size(), rows_per_group, kGroupsPerFile,
          grouping ? *column_groups : columnar::ColumnGroupLayout{}),
      &rewrite));
  stats->segments_read += inputs.size();
  // A lost publish race means a concurrent rewrite replaced an input
  // after our snapshot: its bytes are authoritative, ours are stale.
  if (!rewrite.published) return Status::OK();
  *relaid = true;
  stats->segments_written = rewrite.files_written;
  stats->groups_written = rewrite.groups_written;
  stats->rows_moved = rewrite.rows;
  if (grouping) stats->column_groups = column_groups->groups.size();
  return Status::OK();
}

}  // namespace ciao
