#ifndef CIAO_STORAGE_JIT_LOADER_H_
#define CIAO_STORAGE_JIT_LOADER_H_

// The one path raw sideline records take into columns (paper §I: "set
// aside the other raw data to be loaded when needed"). A raw screen —
// the caller's query clauses compiled to string-matching programs, which
// have no false negatives (§IV-B) — rules records out without parsing;
// the survivors go through the loader's own BatchBuilder conversion.
// Promotions publish the converted rows as a segment; the executor's
// full scan evaluates them in place with the same typed kernels it runs
// on loaded rows, so a record counts and hashes identically whether it
// was loaded, promoted or scanned raw.

#include <cstdint>
#include <vector>

#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "common/status.h"
#include "predicate/predicate.h"
#include "predicate/registry.h"
#include "storage/catalog.h"

namespace ciao {

/// The sideline records a raw screen could not rule out, converted.
struct ConvertedSideline {
  columnar::RecordBatch batch;
  /// Batch row r is sideline record source[r] (ascending).
  std::vector<uint32_t> source;
  /// Records the screen proved non-matching — never parsed.
  uint64_t screened_out = 0;
  /// Screen survivors that failed to parse.
  uint64_t parse_failures = 0;
};

/// Screens every record of `raw` with `screen`'s clauses (a conjunction;
/// clauses that cannot run on raw bytes, e.g. ranges, do not screen, and
/// a query without clauses screens nothing out) and converts the
/// survivors with `schema`'s BatchBuilder.
ConvertedSideline ConvertSideline(const RawStore& raw, const Query& screen,
                                  const columnar::Schema& schema);

/// Counters of sideline promotions.
struct PromotionStats {
  /// Records published as columnar rows.
  uint64_t promoted = 0;
  /// Records the screen ruled out — left raw, unparsed.
  uint64_t screened_out = 0;
  /// Screen survivors that failed to parse — left raw.
  uint64_t parse_failures = 0;
  double seconds = 0.0;
};

/// Moves the sideline records `screen` cannot rule out into one columnar
/// segment (ConvertSideline, then one TableWriter row group). Their
/// annotations re-evaluate `registry` on the raw bytes with the client
/// filter — no false negatives — and the segment is tagged
/// `annotation_epoch`, so skipping scans keep their benefit on the
/// promoted rows. Screened-out and unparseable records stay raw. The
/// segment append and the sideline swap publish atomically
/// (TableCatalog::PublishPromotion): a combined scan snapshot sees each
/// record in exactly one of {segment, sideline}.
///
/// The caller must hold catalog->restructure_mu().
Status PromoteSideline(TableCatalog* catalog, const Query& screen,
                       const PredicateRegistry& registry,
                       uint64_t annotation_epoch, PromotionStats* stats);

/// Compaction: promotes the whole sideline (no screen). Takes
/// restructure_mu.
Status PromoteRawToColumnar(TableCatalog* catalog,
                            const PredicateRegistry& registry,
                            uint64_t annotation_epoch, PromotionStats* stats);

/// Query-driven promotion: promotes only the records `query`'s residual
/// screen cannot rule out. Run it BEFORE the query's full scan: the scan
/// then finds the promoted rows in columnar form and the remaining
/// sideline shrinks to records this query could never match. Promotion
/// is an optimization, so when another thread is already restructuring
/// the sideline this returns at once instead of queueing.
Status PromoteForQuery(TableCatalog* catalog, const Query& query,
                       const PredicateRegistry& registry,
                       uint64_t annotation_epoch, PromotionStats* stats);

}  // namespace ciao

#endif  // CIAO_STORAGE_JIT_LOADER_H_
