#include "storage/rewrite.h"

#include <utility>

#include "columnar/file_reader.h"
#include "engine/vectorized_eval.h"

namespace ciao {

namespace {

/// Every registered clause compiled on its own, so each yields its own
/// annotation vector.
Result<std::vector<VectorizedQuery>> CompileRegistryClauses(
    const PredicateRegistry& registry, const columnar::Schema& schema) {
  std::vector<VectorizedQuery> compiled;
  compiled.reserve(registry.size());
  for (const RegisteredPredicate& p : registry.predicates()) {
    Query probe;
    probe.clauses = {p.clause};
    CIAO_ASSIGN_OR_RETURN(VectorizedQuery q,
                          VectorizedQuery::Compile(probe, schema));
    compiled.push_back(std::move(q));
  }
  return compiled;
}

}  // namespace

Status RewriteSegments(TableCatalog* catalog,
                       const std::vector<SegmentRef>& inputs,
                       const PredicateRegistry& registry,
                       uint64_t annotation_epoch, const RowOrder& order,
                       columnar::ClusteredSegmentWriter writer,
                       RewriteResult* result) {
  CIAO_ASSIGN_OR_RETURN(
      const std::vector<VectorizedQuery> clauses,
      CompileRegistryClauses(registry, catalog->schema()));

  std::vector<RewriteGroup> groups;
  for (const SegmentRef& segment : inputs) {
    CIAO_ASSIGN_OR_RETURN(const PinnedSegment pin, PinSegment(*segment));
    // kVerify even though a disk mapping was checked when it was created:
    // the output is sealed under fresh CRCs, so bytes damaged in memory
    // would otherwise come out looking valid.
    CIAO_ASSIGN_OR_RETURN(
        columnar::TableReader reader,
        columnar::TableReader::OpenBorrowed(pin.bytes,
                                            columnar::ChecksumMode::kVerify));
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      RewriteGroup group;
      CIAO_ASSIGN_OR_RETURN(group.batch, reader.ReadBatch(g));
      const size_t rows = group.batch.num_rows();
      group.bits = BitVectorSet(clauses.size(), rows);
      for (size_t p = 0; p < clauses.size(); ++p) {
        CIAO_ASSIGN_OR_RETURN(*group.bits.mutable_vector(p),
                              clauses[p].Evaluate(group.batch, rows));
      }
      result->rows += rows;
      ++result->groups_read;
      groups.push_back(std::move(group));
    }
  }

  uint64_t ordered = 0;
  for (const std::vector<RowRef>& partition : order(groups)) {
    for (const RowRef& ref : partition) {
      const RewriteGroup& group = groups[ref.group];
      CIAO_RETURN_IF_ERROR(writer.Append(group.batch, ref.row, group.bits));
    }
    CIAO_RETURN_IF_ERROR(writer.EndGroup());
    ordered += partition.size();
  }
  if (ordered != result->rows) {
    return Status::Internal("rewrite: row order does not cover the input");
  }
  CIAO_ASSIGN_OR_RETURN(std::vector<columnar::SealedFile> files,
                        std::move(writer).Finish());

  std::vector<ColumnarSegment> replacements;
  replacements.reserve(files.size());
  for (columnar::SealedFile& file : files) {
    result->groups_written += file.num_groups;
    ColumnarSegment segment;
    segment.file_bytes = std::move(file.file_bytes);
    segment.num_rows = file.num_rows;
    segment.annotation_epoch = annotation_epoch;
    segment.annotations_exact = true;
    replacements.push_back(std::move(segment));
  }
  result->files_written = replacements.size();
  result->published =
      catalog->ReplaceSegments(inputs, std::move(replacements));
  return Status::OK();
}

}  // namespace ciao
