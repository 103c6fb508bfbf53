#include "columnar/clustered_writer.h"

#include <utility>

namespace ciao::columnar {

namespace {

/// Copies row `r` of `src` onto the end of each column of `dst`.
void AppendRow(RecordBatch* dst, const RecordBatch& src, size_t r) {
  for (size_t c = 0; c < src.num_columns(); ++c) {
    const ColumnVector& from = src.column(c);
    ColumnVector* to = dst->mutable_column(c);
    if (!from.IsValid(r)) {
      to->AppendNull();
      continue;
    }
    switch (from.type()) {
      case ColumnType::kInt64:
        to->AppendInt64(from.GetInt64(r));
        break;
      case ColumnType::kDouble:
        to->AppendDouble(from.GetDouble(r));
        break;
      case ColumnType::kBool:
        to->AppendBool(from.GetBool(r));
        break;
      case ColumnType::kString:
        to->AppendString(from.GetString(r));
        break;
    }
  }
}

}  // namespace

ClusteredSegmentWriter::ClusteredSegmentWriter(const Schema& schema,
                                               size_t num_predicates,
                                               size_t rows_per_group,
                                               size_t groups_per_file,
                                               ColumnGroupLayout layout)
    : schema_(schema),
      num_predicates_(num_predicates),
      rows_per_group_(rows_per_group == 0 ? 1 : rows_per_group),
      groups_per_file_(groups_per_file == 0 ? 1 : groups_per_file),
      layout_(std::move(layout)),
      pending_(schema_),
      pending_bits_(num_predicates),
      writer_(schema_, layout_) {}

Status ClusteredSegmentWriter::Append(const RecordBatch& src, size_t row,
                                      const BitVectorSet& src_bits) {
  if (src_bits.num_predicates() != num_predicates_) {
    return Status::InvalidArgument(
        "ClusteredSegmentWriter: annotation slot count mismatch");
  }
  AppendRow(&pending_, src, row);
  for (size_t p = 0; p < num_predicates_; ++p) {
    pending_bits_[p].push_back(src_bits.vector(p).Get(row));
  }
  if (pending_.num_rows() >= rows_per_group_) return EndGroup();
  return Status::OK();
}

Status ClusteredSegmentWriter::EndGroup() {
  CIAO_RETURN_IF_ERROR(FlushGroup());
  if (writer_.num_row_groups() >= groups_per_file_) SealFile();
  return Status::OK();
}

Status ClusteredSegmentWriter::FlushGroup() {
  const size_t rows = pending_.num_rows();
  if (rows == 0) return Status::OK();
  BitVectorSet annotations(num_predicates_, rows);
  for (size_t p = 0; p < num_predicates_; ++p) {
    BitVector* out = annotations.mutable_vector(p);
    for (size_t r = 0; r < rows; ++r) {
      if (pending_bits_[p][r]) out->Set(r, true);
    }
    pending_bits_[p].clear();
  }
  CIAO_RETURN_IF_ERROR(writer_.AppendRowGroup(pending_, annotations));
  file_rows_ += rows;
  pending_ = RecordBatch(schema_);
  return Status::OK();
}

void ClusteredSegmentWriter::SealFile() {
  if (writer_.num_row_groups() == 0) return;
  SealedFile file;
  file.num_rows = file_rows_;
  file.num_groups = writer_.num_row_groups();
  file.file_bytes = std::move(writer_).Finish();
  sealed_.push_back(std::move(file));
  writer_ = TableWriter(schema_, layout_);
  file_rows_ = 0;
}

Result<std::vector<SealedFile>> ClusteredSegmentWriter::Finish() && {
  CIAO_RETURN_IF_ERROR(FlushGroup());
  SealFile();
  return std::move(sealed_);
}

}  // namespace ciao::columnar
