#ifndef CIAO_ENGINE_PROJECTION_H_
#define CIAO_ENGINE_PROJECTION_H_

// Order-independent projection checksums. A query with projected columns
// makes the executor materialize those columns' values for every matching
// row; rather than returning row sets (which would not merge across the
// parallel segment scan), each projected column is reduced to the sum
// (mod 2^64) of a typed FNV-1a hash per matching row. The reduction is
// commutative and associative, so scan order, thread count, and physical
// layout (grouped vs ungrouped, skipping vs full scan, columnar vs raw
// sideline) all produce byte-identical checksums — which is exactly what
// the grouped/ungrouped differential suites pin.
//
// Every value path hashes decoded ColumnVector slots: raw-sideline
// records are converted by the loader's BatchBuilder before they are
// hashed (storage/jit_loader.h), so a record hashes identically whether
// it was loaded or sidelined.

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "predicate/predicate.h"

namespace ciao {

/// Typed value hashes. Tags separate types and NULL so (int 0, double 0,
/// false, "", NULL) are all distinct.
uint64_t HashProjectedNull();
uint64_t HashProjectedInt64(int64_t v);
uint64_t HashProjectedDouble(double v);
uint64_t HashProjectedBool(bool v);
uint64_t HashProjectedString(std::string_view v);

/// A query's projected columns resolved against a schema. Unknown column
/// names resolve to NULL on every row: presence in the schema, not in the
/// record, decides.
class ProjectionSpec {
 public:
  /// Empty projection: AddWantedColumns adds nothing.
  ProjectionSpec() = default;

  ProjectionSpec(const Query& query, const columnar::Schema& schema);

  bool empty() const { return columns_.empty(); }
  size_t size() const { return columns_.size(); }

  /// ORs the projected columns into a ReferencedColumns-style mask (one
  /// entry per schema field) so the scan decodes them.
  void AddWantedColumns(std::vector<bool>* wanted) const;

  /// Projected-only mask — what the exact-bits counting path decodes when
  /// the predicate itself needs no column at all.
  std::vector<bool> WantedColumnsOnly(size_t num_fields) const;

  /// Accumulates row `r` of `batch` into `sums` (size() entries; caller
  /// allocates via EnsureSize).
  void AccumulateRow(const columnar::RecordBatch& batch, size_t r,
                     std::vector<uint64_t>* sums) const;

  /// Resizes `sums` to size() (zero-filled) if smaller.
  void EnsureSize(std::vector<uint64_t>* sums) const;

 private:
  struct ProjectedColumn {
    std::string name;
    /// Schema field index, or -1 (projects NULL on every row).
    int field = -1;
    columnar::ColumnType type = columnar::ColumnType::kString;
  };
  std::vector<ProjectedColumn> columns_;
};

}  // namespace ciao

#endif  // CIAO_ENGINE_PROJECTION_H_
