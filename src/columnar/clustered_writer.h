#ifndef CIAO_COLUMNAR_CLUSTERED_WRITER_H_
#define CIAO_COLUMNAR_CLUSTERED_WRITER_H_

#include <string>
#include <vector>

#include "bitvec/bitvector_set.h"
#include "columnar/file_writer.h"
#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "common/status.h"

namespace ciao::columnar {

/// One finished output file of a clustered rewrite.
struct SealedFile {
  std::string file_bytes;
  uint64_t num_rows = 0;
  uint64_t num_groups = 0;
};

/// The write path of every segment rewrite (storage/rewrite.h). The
/// caller appends rows one at a time in its chosen order, each with its
/// annotation bits; the writer packs them into fixed-size row
/// groups and seals a bounded number of groups per output file, so the
/// parallel segment scan keeps its per-segment fan-out after a rewrite
/// coalesces many small ingest-chunk segments.
///
/// Zone maps and the match-density summary are recomputed per group by
/// TableWriter::AppendRowGroup — contiguity of similar rows is exactly
/// what makes those group statistics selective.
class ClusteredSegmentWriter {
 public:
  /// `rows_per_group` rows are sealed into each row group and
  /// `groups_per_file` groups into each output file (the last of each may
  /// be short). `num_predicates` is the annotation slot count every
  /// appended row's bits must carry. `layout` (the workload-mined column
  /// grouping) selects the v4 grouped body for every sealed group; empty
  /// keeps the legacy per-column body — so one rewrite pass applies the
  /// row clustering and the vertical re-partitioning together.
  ClusteredSegmentWriter(const Schema& schema, size_t num_predicates,
                         size_t rows_per_group, size_t groups_per_file,
                         ColumnGroupLayout layout = {});

  /// Appends row `row` of `src` together with its per-predicate bits from
  /// `src_bits` (the source group's annotation set; must have
  /// `num_predicates` slots covering `row`).
  Status Append(const RecordBatch& src, size_t row,
                const BitVectorSet& src_bits);

  /// Seals the pending row group now, short of `rows_per_group` (no-op
  /// when empty): rows appended before and after never share a group.
  Status EndGroup();

  /// Flushes the partial group and file and returns every sealed file.
  /// The writer is consumed.
  Result<std::vector<SealedFile>> Finish() &&;

 private:
  Status FlushGroup();
  void SealFile();

  const Schema schema_;
  const size_t num_predicates_;
  const size_t rows_per_group_;
  const size_t groups_per_file_;
  const ColumnGroupLayout layout_;

  RecordBatch pending_;
  /// pending_bits_[p][r] = predicate p's bit for pending row r.
  std::vector<std::vector<bool>> pending_bits_;

  TableWriter writer_;
  uint64_t file_rows_ = 0;
  std::vector<SealedFile> sealed_;
};

}  // namespace ciao::columnar

#endif  // CIAO_COLUMNAR_CLUSTERED_WRITER_H_
