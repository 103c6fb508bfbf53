#ifndef CIAO_STORAGE_RELAYOUT_H_
#define CIAO_STORAGE_RELAYOUT_H_

#include <cstdint>
#include <vector>

#include "columnar/file_writer.h"
#include "common/status.h"
#include "core/config.h"
#include "predicate/predicate.h"
#include "predicate/registry.h"
#include "storage/catalog.h"
#include "storage/rewrite.h"

namespace ciao {

/// Counters of one segment re-layout pass.
struct RelayoutStats {
  /// Input segments whose rows were re-clustered.
  uint64_t segments_read = 0;
  /// Replacement segments published (0 when the pass aborted because a
  /// concurrent rewrite replaced an input segment first).
  uint64_t segments_written = 0;
  uint64_t groups_written = 0;
  /// Rows re-clustered (decoded, permuted, re-encoded).
  uint64_t rows_moved = 0;
  /// Column groups of the vertical layout applied to the rewritten
  /// segments (0 = legacy per-column body, no grouping).
  uint64_t column_groups = 0;
  /// Wall-clock of the whole pass — the cost the regret accounting
  /// charges against realized query waste.
  double seconds = 0.0;
};

/// One clustering key: a pushed-down predicate ranked by how much decayed
/// query mass references it.
struct HotPredicate {
  uint32_t id = 0;
  double weight = 0.0;
};

/// Derives the clustering key set from a workload: every pushed-down
/// predicate referenced by the workload's queries, ranked by summed query
/// frequency (hottest first, id as tiebreak), capped at `max_predicates`.
std::vector<HotPredicate> RankHotPredicates(const Workload& workload,
                                            const PredicateRegistry& registry,
                                            size_t max_predicates);

/// Re-clusters the sealed segments annotated for `annotation_epoch` so
/// hot-predicate matches become contiguous:
///
///  1. Rows are ordered lexicographically by their hot-predicate match
///     signature (hottest predicate = most significant bit, descending),
///     so each hot predicate's matches collapse into a few contiguous
///     runs; rows matching nothing hot sink into all-zero "cold" groups.
///  2. Within equal signatures, rows sort by the first numeric column a
///     hot predicate constrains (nulls last), tightening per-group
///     min/max zone maps on exactly the column queries filter on.
///  3. The rows go through RewriteSegments (storage/rewrite.h): inputs
///     read with CRC verification, annotation bits recomputed by exact
///     typed evaluation (upgrading the client prefilter's superset bits,
///     so false-positive rows join the cold tail and the output segments
///     are marked `annotations_exact`), zone maps and match densities
///     recomputed per `options.rows_per_group`-row group, a bounded number
///     of groups per output file, and one atomic TableCatalog::
///     ReplaceSegments publish. A damaged input fails the pass with
///     Corruption and leaves the catalog untouched.
///
/// Only segments already carrying `annotation_epoch` bits participate
/// (their id space matches the registry being evaluated); stale
/// segments are left for backfill. Concurrent queries are safe throughout:
/// they scan refcounted snapshots, and the all-or-nothing publish means
/// any snapshot sees the full old layout or the full new one. If a
/// concurrent rewrite replaces an input segment mid-pass, the publish
/// aborts and `*relaid` is false (the catalog is untouched).
///
/// `column_groups` (optional) is the workload-mined vertical layout the
/// same rewrite applies: sealed groups get the v4 column-grouped body so
/// queries decode only the chunks covering their columns. Null or empty
/// keeps the legacy per-column body. A non-empty layout also lets the
/// pass run with *no* hot predicates (vertical-only rewrite: rows keep
/// their order, columns move).
///
/// Returns true in `*relaid` iff the replacement set was published.
Status RelayoutSegments(TableCatalog* catalog,
                        const PredicateRegistry& registry,
                        const std::vector<HotPredicate>& hot,
                        uint64_t annotation_epoch,
                        const RelayoutOptions& options,
                        const columnar::ColumnGroupLayout* column_groups,
                        RelayoutStats* stats, bool* relaid);

}  // namespace ciao

#endif  // CIAO_STORAGE_RELAYOUT_H_
