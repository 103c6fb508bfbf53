#ifndef CIAO_STORAGE_REWRITE_H_
#define CIAO_STORAGE_REWRITE_H_

// The one rewrite path for loaded rows. Annotation backfill (a new plan
// epoch) and re-layout (hot-predicate clustering plus column grouping)
// both decode a set of published segments, recompute exact annotation
// bits for a registry, write the rows back in an order of their choosing
// and publish the result atomically. They differ only in which segments
// go in, the row order, and the output shape — the arguments below.

#include <cstdint>
#include <functional>
#include <vector>

#include "bitvec/bitvector_set.h"
#include "columnar/clustered_writer.h"
#include "columnar/record_batch.h"
#include "common/status.h"
#include "predicate/registry.h"
#include "storage/catalog.h"

namespace ciao {

/// Rows per rewritten row group unless a caller chooses otherwise; matches
/// the ingest pipeline's default chunk granularity.
inline constexpr size_t kRewriteRowsPerGroup = 4096;

/// One decoded input row group and its exact annotation bits.
struct RewriteGroup {
  columnar::RecordBatch batch;
  /// One vector per registered clause, from typed evaluation of the
  /// decoded rows: no false negatives and, unlike client-prefilter bits,
  /// no false positives either.
  BitVectorSet bits;
};

/// One row among the decoded input groups.
struct RowRef {
  uint32_t group = 0;
  uint32_t row = 0;
};

/// A caller-chosen output order: partitions written in turn, rows in
/// order within each. Rows of different partitions never share an output
/// row group. Every input row must appear exactly once.
using RowPartitions = std::vector<std::vector<RowRef>>;
using RowOrder =
    std::function<RowPartitions(const std::vector<RewriteGroup>&)>;

/// What one RewriteSegments call did.
struct RewriteResult {
  uint64_t groups_read = 0;
  uint64_t rows = 0;
  uint64_t files_written = 0;
  uint64_t groups_written = 0;
  /// False when a concurrent rewrite replaced an input segment first: the
  /// catalog is untouched and the work above is dropped.
  bool published = false;
};

/// Rewrites `inputs` (published segments of `catalog`) for `registry`:
///
///  1. Every input is pinned and read with ChecksumMode::kVerify, so a
///     rewrite never re-seals bytes it has not checked — a damaged input
///     fails the call with Corruption and the catalog is left untouched.
///  2. Each row group gets exact bits: one vectorized typed evaluation per
///     registered clause.
///  3. `order` permutes the rows; `writer` (whose shape — rows per group,
///     groups per file, column layout — the caller chose) seals them with
///     recomputed zone maps and match densities.
///  4. The sealed files replace `inputs` through ReplaceSegments, all or
///     nothing, tagged `annotation_epoch` and `annotations_exact`.
Status RewriteSegments(TableCatalog* catalog,
                       const std::vector<SegmentRef>& inputs,
                       const PredicateRegistry& registry,
                       uint64_t annotation_epoch, const RowOrder& order,
                       columnar::ClusteredSegmentWriter writer,
                       RewriteResult* result);

}  // namespace ciao

#endif  // CIAO_STORAGE_REWRITE_H_
