#ifndef CIAO_STORAGE_BACKFILL_H_
#define CIAO_STORAGE_BACKFILL_H_

#include <cstdint>

#include "common/status.h"
#include "predicate/registry.h"
#include "storage/catalog.h"

namespace ciao {

/// Counters of one annotation-backfill pass.
struct BackfillStats {
  /// Segments rewritten with annotations in the new epoch's id space.
  uint64_t segments_rebuilt = 0;
  uint64_t groups_rebuilt = 0;
  /// Rows whose annotation bits were recomputed (exact typed evaluation).
  uint64_t rows_reannotated = 0;
  /// Sideline records promoted to columnar because they match >= 1
  /// predicate of the new epoch.
  uint64_t raw_promoted = 0;
  /// Sideline records kept raw (match no new predicate, or unparseable).
  uint64_t raw_kept = 0;
  double seconds = 0.0;
};

/// Brings the whole catalog into the predicate-id space of a new plan
/// epoch *without discarding loaded data* (the incremental alternative to
/// a cold reload). A thin caller of the two shared primitives:
///
///  1. Every segment not yet tagged `annotation_epoch` goes through one
///     RewriteSegments call (storage/rewrite.h): verified read, exact bits
///     for `registry`'s clauses, rows matching >= 1 new predicate first,
///     and no output row group mixing those with rows matching none — the
///     all-zero groups are what the new epoch's skipping scans drop
///     without a decode. Segments already tagged are left untouched
///     (idempotence). A damaged segment stops the pass with Corruption;
///     segments rewritten before it stay published (they are correct).
///  2. PromoteSideline (storage/jit_loader.h) moves the sideline records
///     that may satisfy >= 1 new predicate into a columnar segment with
///     client-filter bits; the rest, and records that fail to parse, stay
///     raw. This restores the planner invariant "every record satisfying
///     a pushed-down clause is loaded" for the new epoch, so its skipping
///     scans may keep ignoring the sideline.
///
/// Concurrency: safe against concurrent *queries* (they scan refcounted
/// snapshots; replaced segments stay alive until their scans finish, and
/// an executor planned against the old epoch treats rewritten segments as
/// stale and verifies rows instead of trusting bits). NOT safe against
/// concurrent ingest appends — run from the query path, as the
/// ReplanController does, or with ingest quiescent.
///
/// Call with the new epoch's registry BEFORE installing the epoch:
/// queries only start trusting the new id space once the epoch is
/// current, at which point every segment already carries matching bits.
Status BackfillEpochAnnotations(TableCatalog* catalog,
                                const PredicateRegistry& registry,
                                uint64_t annotation_epoch,
                                BackfillStats* stats);

}  // namespace ciao

#endif  // CIAO_STORAGE_BACKFILL_H_
