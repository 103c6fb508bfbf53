#include "storage/jit_loader.h"

#include <utility>

#include "bitvec/bitvector_set.h"
#include "client/client_filter.h"
#include "columnar/file_writer.h"
#include "columnar/json_converter.h"
#include "common/timer.h"
#include "json/chunk.h"
#include "predicate/pattern_compiler.h"

namespace ciao {

ConvertedSideline ConvertSideline(const RawStore& raw, const Query& screen,
                                  const columnar::Schema& schema) {
  std::vector<RawClauseProgram> programs;
  programs.reserve(screen.clauses.size());
  for (const Clause& clause : screen.clauses) {
    if (!clause.SupportedOnClient()) continue;
    Result<RawClauseProgram> program = RawClauseProgram::Compile(clause);
    if (program.ok()) programs.push_back(std::move(program).value());
  }

  ConvertedSideline out;
  columnar::BatchBuilder builder(schema);
  for (size_t i = 0; i < raw.size(); ++i) {
    const std::string_view record = raw.Record(i);
    bool maybe = true;
    for (const RawClauseProgram& program : programs) {
      if (!program.Matches(record)) {  // conjunction: one miss rules out
        maybe = false;
        break;
      }
    }
    if (!maybe) {
      ++out.screened_out;
    } else if (builder.AppendSerialized(record).ok()) {
      out.source.push_back(static_cast<uint32_t>(i));
    } else {
      ++out.parse_failures;
    }
  }
  out.batch = builder.Finish();
  return out;
}

Status PromoteSideline(TableCatalog* catalog, const Query& screen,
                       const PredicateRegistry& registry,
                       uint64_t annotation_epoch, PromotionStats* stats) {
  const std::shared_ptr<const RawStore> raw = catalog->SnapshotRaw();
  if (raw->empty()) return Status::OK();
  ScopedTimer timer(&stats->seconds);

  const ConvertedSideline converted =
      ConvertSideline(*raw, screen, catalog->schema());
  stats->screened_out += converted.screened_out;
  stats->parse_failures += converted.parse_failures;
  const size_t rows = converted.source.size();
  if (rows == 0) return Status::OK();  // the sideline stays as it is

  json::JsonChunk promoted;
  RawStore kept;
  size_t next = 0;
  for (size_t i = 0; i < raw->size(); ++i) {
    if (next < rows && converted.source[next] == i) {
      promoted.AppendSerialized(raw->Record(i));
      ++next;
    } else {
      kept.Append(raw->Record(i));
    }
  }
  BitVectorSet annotations;
  if (!registry.empty()) {
    PrefilterStats prefilter_stats;
    annotations = ClientFilter(&registry).Evaluate(promoted, &prefilter_stats);
  }
  columnar::TableWriter writer(catalog->schema());
  CIAO_RETURN_IF_ERROR(writer.AppendRowGroup(converted.batch, annotations));
  catalog->PublishPromotion(std::move(writer).Finish(), rows,
                            annotation_epoch, std::move(kept));
  stats->promoted += rows;
  return Status::OK();
}

Status PromoteRawToColumnar(TableCatalog* catalog,
                            const PredicateRegistry& registry,
                            uint64_t annotation_epoch, PromotionStats* stats) {
  std::lock_guard<std::mutex> restructure(catalog->restructure_mu());
  return PromoteSideline(catalog, Query{}, registry, annotation_epoch, stats);
}

Status PromoteForQuery(TableCatalog* catalog, const Query& query,
                       const PredicateRegistry& registry,
                       uint64_t annotation_epoch, PromotionStats* stats) {
  std::unique_lock<std::mutex> restructure(catalog->restructure_mu(),
                                           std::try_to_lock);
  if (!restructure.owns_lock()) return Status::OK();
  return PromoteSideline(catalog, query, registry, annotation_epoch, stats);
}

}  // namespace ciao
