// End-to-end benchmark harness: runs one named workload against the public
// CiaoSystem API with a single closed-loop caller, checks every answer,
// and prints one JSON document of raw measurements on stdout. run.py turns
// that document into the benchmark's metrics (see README.md).
//
//   ciaobench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --work-dir <dir>
//
// A run generates its inputs from the seed, computes the expected answers
// with a budget-0 reference pipeline, then repeats the workload (a fresh
// system per repetition) a number of times fixed by --seconds and the
// workload (see main). With --trace 1 the repetitions alternate untraced
// and traced; traced ones record a span around every facade call, with
// counter deltas read from the public stats accessors, and time the
// standalone layer calls the facade does not time (WriteAheadLog::Append,
// cold PinSegment). Spans are kept in memory and printed with the result
// at exit; run.py writes them to a file.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/config.h"
#include "core/system.h"
#include "costmodel/cost_model.h"
#include "json/writer.h"
#include "storage/catalog.h"
#include "storage/segment_file.h"
#include "storage/segment_store.h"
#include "storage/wal.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"
#include "workload/templates.h"

namespace {

namespace fs = std::filesystem;
using ciao::CiaoConfig;
using ciao::CiaoSystem;
using ciao::Query;
using ciao::QueryResult;
using ciao::Status;
using ciao::Workload;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-9;
}

/// Resident set size from /proc/self/statm (0 where unavailable).
uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  return pages_resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// `s` as a quoted JSON string.
std::string JsonString(std::string_view s) {
  std::string out = "\"";
  ciao::json::EscapeStringTo(s, &out);
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Tracing: spans at every layer boundary the harness calls into.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

/// In-memory span recorder. Disabled, every call is a no-op, so untraced
/// repetitions pay one branch per call site.
class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_run(int run) { run_ = run; }

  int Begin(const std::string& name) {
    if (!on_) return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.run = run_;
    span.start_ns = NowNanos();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[id].end_ns = NowNanos();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  void Attr(int id, const std::string& key, double value) {
    if (id >= 0) spans_[id].attrs.emplace_back(key, value);
  }

  std::string ToJson() const {
    std::ostringstream out;
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i > 0 ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":"
          << JsonString(s.name) << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"run\":" << s.run << ",\"attrs\":{";
      for (size_t a = 0; a < s.attrs.size(); ++a) {
        out << (a > 0 ? "," : "") << JsonString(s.attrs[a].first) << ":"
            << Num(s.attrs[a].second);
      }
      out << "}}";
    }
    out << "]";
    return out.str();
  }

 private:
  bool on_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Public counters read around each traced facade call; the span gets the
/// deltas.
struct CounterSnapshot {
  double prefilter_s = 0;
  double prefilter_records = 0;
  double parse_s = 0;
  double encode_s = 0;
  double replans = 0;
  double relayouts = 0;
  double jit_promoted = 0;
  double checkpoints = 0;

  static CounterSnapshot Read(const CiaoSystem& sys) {
    CounterSnapshot c;
    const ciao::PrefilterStats pf = sys.prefilter_stats();
    c.prefilter_s = pf.seconds;
    c.prefilter_records = static_cast<double>(pf.records_filtered);
    const ciao::LoadStats& ls = sys.load_stats();
    c.parse_s = ls.parse_seconds;
    c.encode_s = ls.encode_seconds;
    c.replans = static_cast<double>(sys.replans_installed());
    c.relayouts = static_cast<double>(sys.relayouts_performed());
    c.jit_promoted = static_cast<double>(sys.promotion_stats().promoted);
    if (sys.segment_store() != nullptr) {
      c.checkpoints =
          static_cast<double>(sys.segment_store()->checkpoints_completed());
    }
    return c;
  }

  void AttachDelta(Tracer* tracer, int span, const CounterSnapshot& before) const {
    if (span < 0) return;
    const std::pair<const char*, double> deltas[] = {
        {"prefilter_s", prefilter_s - before.prefilter_s},
        {"parse_s", parse_s - before.parse_s},
        {"encode_s", encode_s - before.encode_s},
        {"replans", replans - before.replans},
        {"relayouts", relayouts - before.relayouts},
        {"jit_promoted", jit_promoted - before.jit_promoted},
        {"checkpoints", checkpoints - before.checkpoints},
    };
    for (const auto& [key, value] : deltas) tracer->Attr(span, key, value);
  }
};

void AttachScanStats(Tracer* tracer, int span, const QueryResult& r) {
  if (span < 0) return;
  const ciao::ScanStats& s = r.stats;
  tracer->Attr(span, "skipping",
               r.plan == ciao::PlanKind::kSkippingScan ? 1.0 : 0.0);
  const std::pair<const char*, uint64_t> stats[] = {
      {"rows_decoded", s.rows_decoded},
      {"rows_evaluated", s.rows_evaluated},
      {"bytes_decoded", s.bytes_decoded},
      {"bytes_decode_waste", s.bytes_decode_waste},
      {"groups_considered", s.groups_considered},
      {"groups_skipped", s.groups_skipped + s.groups_skipped_zonemap},
      {"groups_counted_exact", s.groups_counted_exact},
      {"raw_records_scanned", s.raw_records_scanned},
      {"raw_records_screened_out", s.raw_records_screened_out},
      {"segments_mapped", s.segments_mapped},
      {"bytes_mapped", s.bytes_mapped},
  };
  for (const auto& [key, value] : stats) {
    tracer->Attr(span, key, static_cast<double>(value));
  }
}

// ---------------------------------------------------------------------------
// Workloads.

/// Records per timed IngestRecords call; also the pipeline's chunk size.
constexpr size_t kBatchRecords = 1000;
/// The storage workload's cache: memory_budget_bytes = input bytes / this.
constexpr uint64_t kMemoryBudgetDivisor = 16;
/// The setup phase runs this many times per repetition; setup_s is the
/// best repetition's median round.
constexpr int kSetupRounds = 5;

/// One named workload. Sizes are per repetition; see README.md for why
/// each workload exists.
struct WorkloadDef {
  std::string name;
  ciao::workload::DatasetKind kind;
  /// Records ingested during setup (one IngestRecords call).
  size_t preload_records = 0;
  /// Timed ingest batches of kBatchRecords, one IngestRecords call each.
  size_t batches = 0;
  /// Queries issued after each batch; 0 = ingest everything, then query.
  size_t queries_per_round = 0;
  /// Load-then-query only: how many times each distinct query runs.
  size_t query_copies = 1;
  bool workload_b = false;
  /// The stream drifts to a Workload A of another mix (see MakeInputs).
  bool drift = false;
  bool adaptive = false;
  bool storage = false;
  /// Explicit CompactAndCheckpoint every this many rounds (storage only).
  size_t checkpoint_every = 0;
  /// Planning sample: the first this many records (selectivity estimates
  /// for bootstrap and re-plans).
  size_t sample_records = 2000;
  /// Wall time of one repetition on the reference host (README.md); fixes
  /// how many repetitions a run of --seconds makes.
  double rep_seconds = 1.0;
};

std::vector<WorkloadDef> Workloads() {
  using ciao::workload::DatasetKind;
  std::vector<WorkloadDef> defs;
  {
    WorkloadDef w;
    w.name = "ycsb_load_query";
    w.kind = DatasetKind::kYcsb;
    w.batches = 50;
    w.query_copies = 5;
    w.rep_seconds = 1.5;
    defs.push_back(w);
  }
  {
    WorkloadDef w;
    w.name = "ycsb_ooc_mixed";
    w.kind = DatasetKind::kYcsb;
    w.batches = 50;
    w.queries_per_round = 4;
    w.workload_b = true;
    w.storage = true;
    w.checkpoint_every = 10;
    w.rep_seconds = 2.25;
    defs.push_back(w);
  }
  {
    WorkloadDef w;
    w.name = "winlog_drift";
    w.kind = DatasetKind::kWinLog;
    w.preload_records = 20000;
    // Rare WinLog markers need a large sample for the pushed set to stay
    // the same from seed to seed.
    w.sample_records = 20000;
    w.batches = 40;
    w.queries_per_round = 25;
    w.drift = true;
    w.adaptive = true;
    w.rep_seconds = 3.0;
    defs.push_back(w);
  }
  return defs;
}

struct Expected {
  uint64_t count = 0;
  std::vector<uint64_t> hashes;

  void Add(uint64_t n, const std::vector<uint64_t>& h) {
    count += n;
    if (hashes.size() < h.size()) hashes.resize(h.size(), 0);
    for (size_t i = 0; i < h.size(); ++i) hashes[i] += h[i];
  }
  /// Compares with `other`; a missing hash (no rows seen yet) reads as 0.
  bool Matches(const Expected& other) const {
    if (count != other.count) return false;
    const size_t n = std::max(hashes.size(), other.hashes.size());
    for (size_t i = 0; i < n; ++i) {
      const uint64_t a = i < hashes.size() ? hashes[i] : 0;
      const uint64_t b = i < other.hashes.size() ? other.hashes[i] : 0;
      if (a != b) return false;
    }
    return true;
  }
};

/// Mix seed of the planned workloads: the default of workload::WorkloadA/B,
/// so the planned mixes are those of the figure benches.
constexpr uint64_t kMixSeed = 42;

enum class OpKind { kIngest, kQuery, kCheckpoint };
struct Op {
  OpKind kind;
  size_t index;  // batch index or query index
};

struct Inputs {
  ciao::columnar::Schema schema;
  std::vector<std::string> sample;
  std::vector<std::string> preload;
  std::vector<std::vector<std::string>> batches;
  /// Distinct queries; the stream refers to them by index.
  std::vector<Query> queries;
  Workload planned;
  std::vector<Op> schedule;
  uint64_t input_bytes = 0;
  /// expected[i] = answer of schedule op i (queries only).
  std::vector<Expected> expected;
  /// Answers once every batch is in (recovery and end-state checks).
  std::vector<Expected> final_answers;
};

/// Every other query also projects one column, cycling through the schema,
/// so answers carry value hashes as well as counts and the stream mixes
/// pure COUNT(*) queries (which exact annotation bits can answer without
/// decoding) with queries that must decode.
void AddProjections(const ciao::columnar::Schema& schema, Workload* workload) {
  for (size_t i = 0; i < workload->queries.size(); i += 2) {
    workload->queries[i].projected = {schema.field((i / 2) % schema.num_fields()).name};
  }
}

Inputs MakeInputs(const WorkloadDef& def, uint64_t seed) {
  namespace wl = ciao::workload;
  Inputs in;
  wl::GeneratorOptions gen;
  gen.num_records = def.preload_records + def.batches * kBatchRecords;
  gen.seed = seed;
  wl::Dataset ds = wl::GenerateDataset(def.kind, gen);
  in.schema = ds.schema;
  for (const std::string& r : ds.records) in.input_bytes += r.size();
  const size_t sample_n = std::min<size_t>(def.sample_records, ds.records.size());
  in.sample.assign(ds.records.begin(), ds.records.begin() + sample_n);
  size_t next = 0;
  for (; next < def.preload_records; ++next) {
    in.preload.push_back(std::move(ds.records[next]));
  }
  for (size_t b = 0; b < def.batches; ++b) {
    std::vector<std::string> batch;
    batch.reserve(kBatchRecords);
    for (size_t i = 0; i < kBatchRecords; ++i) {
      batch.push_back(std::move(ds.records[next++]));
    }
    in.batches.push_back(std::move(batch));
  }

  const std::vector<ciao::Clause> pool = wl::TemplatesFor(def.kind).AllCandidates();
  // The query mix (which predicates are popular) is part of the workload,
  // not of the seed: it decides the pushed set and with it every metric
  // (README.md, "Seeds"). The seed drives the records and with them the
  // planning sample.
  in.planned = def.workload_b ? wl::WorkloadB(pool, kMixSeed)
                              : wl::WorkloadA(pool, kMixSeed);
  AddProjections(in.schema, &in.planned);
  std::vector<size_t> phase_a, phase_b;
  for (const Query& q : in.planned.queries) {
    phase_a.push_back(in.queries.size());
    in.queries.push_back(q);
  }
  if (def.drift) {
    Workload drifted = wl::WorkloadA(pool, kMixSeed + 1);
    AddProjections(in.schema, &drifted);
    for (Query& q : drifted.queries) {
      q.name = "drift_" + q.name;
      phase_b.push_back(in.queries.size());
      in.queries.push_back(std::move(q));
    }
  }

  // The stream runs every distinct query equally often, so the latency mix
  // does not hinge on which queries happen to be drawn more often. Its
  // order is fixed too: the adaptive runtime re-plans from the decayed log
  // of recent queries, and a seeded order flipped its decisions (and
  // winlog_drift's e2e_s by 40%) from seed to seed.
  ciao::Rng rng(kMixSeed ^ 0x43494142454E4348ULL);
  const auto stream_of = [&](const std::vector<size_t>& ids, size_t total) {
    std::vector<size_t> stream;
    while (stream.size() < total) {
      std::vector<size_t> copy = ids;
      rng.Shuffle(&copy);
      for (size_t id : copy) {
        if (stream.size() < total) stream.push_back(id);
      }
    }
    return stream;
  };
  std::vector<size_t> stream;
  if (def.queries_per_round == 0) {
    stream = stream_of(phase_a, phase_a.size() * def.query_copies);
  } else {
    const size_t total = def.batches * def.queries_per_round;
    if (def.drift) {
      // The drift starts 40% into the stream. Ingest calls cost less after
      // the re-plans, so an even split would put the median call right on
      // the boundary between the two phases.
      const size_t before = total * 2 / 5;
      stream = stream_of(phase_a, before);
      std::vector<size_t> tail = stream_of(phase_b, total - before);
      stream.insert(stream.end(), tail.begin(), tail.end());
    } else {
      stream = stream_of(phase_a, total);
    }
  }

  size_t q = 0;
  if (def.queries_per_round == 0) {
    for (size_t b = 0; b < def.batches; ++b) in.schedule.push_back({OpKind::kIngest, b});
    for (size_t id : stream) in.schedule.push_back({OpKind::kQuery, id});
  } else {
    for (size_t b = 0; b < def.batches; ++b) {
      in.schedule.push_back({OpKind::kIngest, b});
      for (size_t i = 0; i < def.queries_per_round; ++i) {
        in.schedule.push_back({OpKind::kQuery, stream[q++]});
      }
      // The last rounds after the final checkpoint stay in the WAL, so the
      // crash image has a tail to replay.
      if (def.checkpoint_every > 0 && (b + 1) % def.checkpoint_every == 0 &&
          b + def.checkpoint_every / 2 < def.batches) {
        in.schedule.push_back({OpKind::kCheckpoint, 0});
      }
    }
  }
  return in;
}

/// Budget-0 reference: no pushdown, full loading, no skipping, no
/// adaptive runtime, no storage. Each batch is loaded into its own
/// reference system; counts and projection hashes are sums over rows, so
/// the answer after k batches is the sum of the per-batch answers.
Status ComputeExpected(Inputs* in) {
  CiaoConfig config;
  config.budget_us = 0.0;
  config.sample_size = 200;
  const auto answers_over = [&](const std::vector<std::string>& records,
                                std::vector<Expected>* out) -> Status {
    out->assign(in->queries.size(), Expected{});
    if (records.empty()) return Status::OK();
    auto sys = CiaoSystem::BootstrapManual(in->schema, in->planned, {},
                                           in->sample, config,
                                           ciao::CostModel::Default());
    if (!sys.ok()) return sys.status();
    if (Status st = (*sys)->IngestRecords(records); !st.ok()) return st;
    for (size_t q = 0; q < in->queries.size(); ++q) {
      auto r = (*sys)->ExecuteQuery(in->queries[q]);
      if (!r.ok()) return r.status();
      (*out)[q].Add(r->count, r->projected_hashes);
    }
    return Status::OK();
  };
  std::vector<Expected> cumulative;
  if (Status st = answers_over(in->preload, &cumulative); !st.ok()) return st;
  std::vector<Expected> batch_answers;
  in->expected.assign(in->schedule.size(), Expected{});
  for (size_t i = 0; i < in->schedule.size(); ++i) {
    const Op& op = in->schedule[i];
    if (op.kind == OpKind::kIngest) {
      Status st = answers_over(in->batches[op.index], &batch_answers);
      if (!st.ok()) return st;
      for (size_t q = 0; q < cumulative.size(); ++q) {
        cumulative[q].Add(batch_answers[q].count, batch_answers[q].hashes);
      }
    } else if (op.kind == OpKind::kQuery) {
      in->expected[i] = cumulative[op.index];
    }
  }
  in->final_answers = cumulative;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One repetition.

struct RepResult {
  bool traced = false;
  /// One per setup round.
  std::vector<double> setup_s;
  double e2e_s = 0;
  std::vector<double> ingest_s;
  uint64_t records_acked = 0;
  std::vector<double> query_s;
  double prefilter_s = 0;
  double prefilter_records = 0;
  std::vector<double> recovery_s;
  uint64_t stored_bytes = 0;
  uint64_t rss_peak_bytes = 0;
  uint64_t pushed = 0;
  std::string pushed_key;
  uint64_t records_in = 0;
  uint64_t records_loaded = 0;
  uint64_t rows_sidelined = 0;
  uint64_t replans = 0;
  uint64_t relayouts = 0;
  uint64_t segments_spilled = 0;
  uint64_t wal_bytes_at_crash = 0;
  uint64_t queries_skipping = 0;
  /// Operations attempted and failed (non-OK status or wrong answer).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 10) errors.push_back(what);
  }
};

std::string PushedKey(const CiaoSystem& sys, uint64_t* count) {
  std::vector<std::string> keys;
  for (const auto& c : sys.plan().selected) keys.push_back(c.clause.CanonicalKey());
  std::sort(keys.begin(), keys.end());
  *count = keys.size();
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& k : keys) {
    for (const char ch : k) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ULL;
    }
    h ^= 0xFF;
    h *= 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

CiaoConfig MakeConfig(const WorkloadDef& def, const Inputs& in,
                      const std::string& store_dir) {
  CiaoConfig config;
  config.budget_us = 1.0;
  config.chunk_size = kBatchRecords;
  config.sample_size = def.sample_records;
  config.query_scan_threads = 1;
  config.ingest.num_clients = 1;
  config.ingest.num_loaders = 1;
  if (def.adaptive) {
    config.adaptive.enabled = true;
    config.adaptive.relayout.enabled = true;
    // Re-plans price predicates with the same uncalibrated model as the
    // bootstrap plan, so they do not depend on this host's timings.
    config.adaptive.recalibrate = false;
  }
  if (def.storage) {
    config.storage.enabled = true;
    config.storage.dir = store_dir;
    config.storage.wal_sync = true;
    config.storage.memory_budget_bytes =
        std::max<uint64_t>(in.input_bytes / kMemoryBudgetDivisor, 1 << 20);
    config.storage.checkpoint_wal_bytes = 0;
    config.storage.compaction_interval_ms = 0;
  }
  return config;
}

/// Runs the distinct queries once (outside any timed phase) and checks
/// them against `want`; returns the answers it saw.
std::vector<Expected> CheckAnswers(CiaoSystem* sys, const Inputs& in,
                                   const std::vector<Expected>& want,
                                   const char* what, RepResult* state) {
  std::vector<Expected> seen(in.queries.size());
  for (size_t q = 0; q < in.queries.size(); ++q) {
    ++state->attempted;
    auto r = sys->ExecuteQuery(in.queries[q]);
    if (!r.ok()) {
      state->Fail(std::string(what) + " query error: " + r.status().ToString());
      continue;
    }
    seen[q].Add(r->count, r->projected_hashes);
    if (!want[q].Matches(seen[q])) {
      state->Fail(std::string(what) + " answer mismatch on " + in.queries[q].name);
    }
  }
  return seen;
}

/// Standalone layer calls the facade does not time: a cold PinSegment of
/// every disk-resident segment through a fresh mapping cache, and
/// WriteAheadLog::Append of the workload's own batches in the same sync
/// mode, into a scratch log.
void TraceStandaloneLayers(const CiaoSystem& sys, const Inputs& in,
                           const CiaoConfig& config, const std::string& scratch,
                           Tracer* tracer, RepResult* state) {
  ScopedSpan standalone(tracer, "standalone");
  for (const ciao::SegmentRef& seg : sys.catalog().SnapshotSegments()) {
    if (seg->disk == nullptr) continue;
    auto file = std::make_shared<ciao::SegmentFile>();
    file->name = seg->disk->name;
    file->path = seg->disk->path;
    file->size = seg->disk->size;
    file->cache = std::make_shared<ciao::MappingCache>(
        config.storage.memory_budget_bytes);
    ciao::ColumnarSegment cold;
    cold.disk = file;
    cold.num_rows = seg->num_rows;
    cold.annotation_epoch = seg->annotation_epoch;
    cold.annotations_exact = seg->annotations_exact;
    ScopedSpan span(tracer, "PinSegment");
    auto pinned = ciao::PinSegment(cold);
    if (!pinned.ok()) state->Fail("cold PinSegment: " + pinned.status().ToString());
  }
  if (!config.storage.enabled) return;
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  auto wal = ciao::WriteAheadLog::Open(
      scratch + "/wal.log", config.storage.wal_sync ? ciao::WalSyncMode::kAlways
                                                    : ciao::WalSyncMode::kNever);
  if (!wal.ok()) {
    state->Fail("standalone WAL open: " + wal.status().ToString());
    return;
  }
  for (size_t b = 0; b < in.batches.size(); ++b) {
    ScopedSpan span(tracer, "WriteAheadLog::Append");
    Status st = (*wal)->Append(b + 1, in.batches[b]);
    if (!st.ok()) state->Fail("standalone WAL append: " + st.ToString());
  }
  wal->reset();
  fs::remove_all(scratch);
}

/// Runs one repetition in the calling process; peak RSS is the process's
/// high-water mark, so call it in a fresh child (see main).
RepResult RunRep(const WorkloadDef& def, const Inputs& in, int rep,
                 const std::string& work_dir, Tracer* tracer) {
  RepResult out;
  out.traced = tracer->on();
  tracer->set_run(rep);
  ScopedSpan rep_span(tracer, "rep");
  const std::string store_dir = work_dir + "/store";
  const std::string crash_dir = work_dir + "/crash";
  fs::remove_all(store_dir);
  fs::remove_all(crash_dir);
  const CiaoConfig config = MakeConfig(def, in, store_dir);

  // Set-up takes tens of milliseconds, so it runs kSetupRounds times; the
  // timed phase uses the last round's system. Dropping the earlier ones
  // is not timed.
  std::unique_ptr<CiaoSystem> sys;
  for (int round = 0; round < kSetupRounds; ++round) {
    sys.reset();
    fs::remove_all(store_dir);
    ScopedSpan setup(tracer, "setup");
    const int64_t t0 = NowNanos();
    {
      ScopedSpan span(tracer, "Bootstrap");
      auto boot = CiaoSystem::Bootstrap(in.schema, in.planned, in.sample, config,
                                        ciao::CostModel::Default());
      if (!boot.ok()) {
        out.Fail("bootstrap: " + boot.status().ToString());
        return out;
      }
      sys = std::move(*boot);
    }
    if (!in.preload.empty()) {
      ScopedSpan span(tracer, "IngestRecords");
      const CounterSnapshot before = CounterSnapshot::Read(*sys);
      Status st = sys->IngestRecords(in.preload);
      if (tracer->on()) CounterSnapshot::Read(*sys).AttachDelta(tracer, span.id(), before);
      if (!st.ok()) out.Fail("preload: " + st.ToString());
    }
    out.setup_s.push_back(SecondsSince(t0));
  }
  out.pushed_key = PushedKey(*sys, &out.pushed);

  const CounterSnapshot timed_before = CounterSnapshot::Read(*sys);
  // Answers are kept here and checked after the timed phase.
  std::vector<Expected> answers(in.schedule.size());
  std::vector<bool> answered(in.schedule.size(), false);
  {
    ScopedSpan timed(tracer, "timed");
    const int64_t t0 = NowNanos();
    for (size_t i = 0; i < in.schedule.size(); ++i) {
      const Op& op = in.schedule[i];
      ++out.attempted;
      if (op.kind == OpKind::kIngest) {
        ScopedSpan span(tracer, "IngestRecords");
        CounterSnapshot before;
        if (tracer->on()) before = CounterSnapshot::Read(*sys);
        const int64_t c0 = NowNanos();
        Status st = sys->IngestRecords(in.batches[op.index]);
        out.ingest_s.push_back(SecondsSince(c0));
        if (tracer->on()) CounterSnapshot::Read(*sys).AttachDelta(tracer, span.id(), before);
        if (st.ok()) {
          out.records_acked += in.batches[op.index].size();
        } else {
          out.Fail("ingest: " + st.ToString());
        }
      } else if (op.kind == OpKind::kQuery) {
        ScopedSpan span(tracer, "ExecuteQuery");
        CounterSnapshot before;
        if (tracer->on()) before = CounterSnapshot::Read(*sys);
        const int64_t c0 = NowNanos();
        auto r = sys->ExecuteQuery(in.queries[op.index]);
        out.query_s.push_back(SecondsSince(c0));
        if (tracer->on()) CounterSnapshot::Read(*sys).AttachDelta(tracer, span.id(), before);
        if (!r.ok()) {
          out.Fail("query: " + r.status().ToString());
        } else {
          if (r->plan == ciao::PlanKind::kSkippingScan) ++out.queries_skipping;
          AttachScanStats(tracer, span.id(), *r);
          answers[i].count = r->count;
          answers[i].hashes = std::move(r->projected_hashes);
          answered[i] = true;
        }
      } else {
        ScopedSpan span(tracer, "CompactAndCheckpoint");
        CounterSnapshot before;
        if (tracer->on()) before = CounterSnapshot::Read(*sys);
        Status st = sys->CompactAndCheckpoint();
        if (tracer->on()) CounterSnapshot::Read(*sys).AttachDelta(tracer, span.id(), before);
        if (!st.ok()) out.Fail("checkpoint: " + st.ToString());
      }
    }
    out.e2e_s = SecondsSince(t0);
  }
  for (size_t i = 0; i < in.schedule.size(); ++i) {
    const Op& op = in.schedule[i];
    if (answered[i] && !in.expected[i].Matches(answers[i])) {
      out.Fail("answer mismatch on " + in.queries[op.index].name);
    }
  }
  const CounterSnapshot timed_after = CounterSnapshot::Read(*sys);
  out.prefilter_s = timed_after.prefilter_s - timed_before.prefilter_s;
  out.prefilter_records = timed_after.prefilter_records - timed_before.prefilter_records;
  out.records_in = sys->load_stats().records_in;
  out.records_loaded = sys->catalog().loaded_rows();
  out.rows_sidelined = sys->load_stats().records_sidelined;
  out.replans = sys->replans_installed();
  out.relayouts = sys->relayouts_performed();
  if (sys->segment_store() != nullptr) {
    out.stored_bytes = DirectoryBytes(store_dir);
    out.segments_spilled = sys->segment_store()->segments_spilled();
  } else {
    out.stored_bytes = sys->catalog().columnar_bytes() + sys->catalog().raw().byte_size();
  }

  // Every timed query was checked against the reference already; only the
  // storage workload has a crash image left to check.
  if (!def.storage) return out;

  // Crash image: a copy of the live store directory taken before shutdown.
  fs::copy(store_dir, crash_dir, fs::copy_options::recursive);
  std::error_code ec;
  out.wal_bytes_at_crash = fs::file_size(crash_dir + "/wal.log", ec);
  if (ec) out.wal_bytes_at_crash = 0;
  // The end-state and recovered-vs-live checks run every distinct query
  // twice, so only a run's first repetition makes them.
  const bool check = rep == 0;
  std::vector<Expected> live;
  if (check) {
    ScopedSpan span(tracer, "check");
    live = CheckAnswers(sys.get(), in, in.final_answers, "live end-state", &out);
  }
  if (tracer->on()) {
    TraceStandaloneLayers(*sys, in, config, work_dir + "/standalone", tracer, &out);
  }
  sys.reset();
  fs::remove_all(store_dir);

  {
    ScopedSpan recovery(tracer, "recovery");
    CiaoConfig reopen_config = config;
    reopen_config.storage.dir = crash_dir;
    ++out.attempted;
    std::unique_ptr<CiaoSystem> recovered;
    {
      ScopedSpan span(tracer, "reopen");
      const int64_t t0 = NowNanos();
      auto boot = CiaoSystem::Bootstrap(in.schema, in.planned, in.sample,
                                        reopen_config, ciao::CostModel::Default());
      out.recovery_s.push_back(SecondsSince(t0));
      if (boot.ok()) {
        recovered = std::move(*boot);
      } else {
        out.Fail("reopen: " + boot.status().ToString());
      }
    }
    if (recovered != nullptr && check) {
      ScopedSpan span(tracer, "check");
      CheckAnswers(recovered.get(), in, live, "recovered vs live", &out);
    }
  }
  fs::remove_all(crash_dir);
  return out;
}

std::string RepJson(const RepResult& r, const Tracer& tracer) {
  std::ostringstream o;
  o << "{\"traced\":" << (r.traced ? 1 : 0) << ",\"setup_s\":" << NumList(r.setup_s)
    << ",\"e2e_s\":" << Num(r.e2e_s) << ",\"ingest_s\":" << NumList(r.ingest_s)
    << ",\"records_acked\":" << r.records_acked
    << ",\"query_s\":" << NumList(r.query_s)
    << ",\"prefilter_s\":" << Num(r.prefilter_s)
    << ",\"prefilter_records\":" << Num(r.prefilter_records)
    << ",\"recovery_s\":" << NumList(r.recovery_s)
    << ",\"stored_bytes\":" << r.stored_bytes
    << ",\"rss_peak_bytes\":" << r.rss_peak_bytes << ",\"pushed\":" << r.pushed
    << ",\"pushed_key\":\"" << r.pushed_key << "\""
    << ",\"records_in\":" << r.records_in
    << ",\"records_loaded\":" << r.records_loaded
    << ",\"rows_sidelined\":" << r.rows_sidelined << ",\"replans\":" << r.replans
    << ",\"relayouts\":" << r.relayouts
    << ",\"segments_spilled\":" << r.segments_spilled
    << ",\"wal_bytes_at_crash\":" << r.wal_bytes_at_crash
    << ",\"queries_skipping\":" << r.queries_skipping
    << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
    << ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    o << (i > 0 ? "," : "") << JsonString(r.errors[i]);
  }
  o << "],\"spans\":" << (r.traced ? tracer.ToJson() : "[]") << "}";
  return o.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: ciaobench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, work_dir;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      trace = value == "1";
    } else if (key == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  if (workload_name.empty() || work_dir.empty() || seconds <= 0) return Usage();
  const std::vector<WorkloadDef> defs = Workloads();
  const auto it = std::find_if(defs.begin(), defs.end(), [&](const WorkloadDef& d) {
    return d.name == workload_name;
  });
  if (it == defs.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }
  const WorkloadDef& def = *it;
  fs::create_directories(work_dir);

  Inputs in = MakeInputs(def, seed);
  if (Status st = ComputeExpected(&in); !st.ok()) {
    std::fprintf(stderr, "reference pipeline failed: %s\n", st.ToString().c_str());
    return 1;
  }
  malloc_trim(0);
  const uint64_t rss_baseline = CurrentRssBytes();

  // The repetition count depends on --seconds and the workload only, never
  // on how fast the code under test runs, so every commit's best-of and
  // pooled statistics see the same number of repetitions. It is at least
  // what percentile support needs for query p99 and ingest p90
  // (metrics.py: ten samples beyond the percentile). Traced runs alternate
  // untraced and traced repetitions, so the tracing overhead is measured
  // in the same process on the same inputs; their count is rounded up to
  // an even number.
  size_t queries_per_rep = 0;
  for (const Op& op : in.schedule) queries_per_rep += op.kind == OpKind::kQuery;
  const int min_reps = std::max<int>(
      {3, static_cast<int>((1000 + queries_per_rep - 1) / queries_per_rep),
       static_cast<int>((100 + def.batches - 1) / def.batches)});
  int reps_wanted =
      std::max(min_reps, static_cast<int>(std::lround(seconds / def.rep_seconds)));
  if (trace) reps_wanted += reps_wanted % 2;
  // A run whose repetitions take over twice their nominal time (a much
  // slower commit, or a host slowed down for minutes) stops starting new
  // ones after 2 * --seconds, so it still ends in bounded time.
  const double max_run_seconds = 2 * seconds;

  // Each repetition runs in a child forked from this fully set-up process:
  // every repetition starts from the same heap, the child's RSS high-water
  // mark is that repetition's peak, and a crash is contained. The child
  // ships its result back as JSON text through a pipe.
  std::vector<std::string> reps;
  std::vector<std::string> errors;
  const int64_t start = NowNanos();
  for (int rep = 0; rep < reps_wanted; ++rep) {
    if (rep >= min_reps && !(trace && rep % 2 == 1) &&
        SecondsSince(start) > max_run_seconds) {
      std::fprintf(stderr, "stopping after %d of %d repetitions: over %.0f s\n",
                   rep, reps_wanted, max_run_seconds);
      break;
    }
    std::fflush(nullptr);
    int fds[2];
    if (pipe(fds) != 0) {
      errors.push_back("pipe failed");
      break;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      errors.push_back("fork failed");
      break;
    }
    if (pid == 0) {
      close(fds[0]);
      Tracer tracer;
      tracer.set_on(trace && rep % 2 == 1);
      RepResult result = RunRep(def, in, rep, work_dir, &tracer);
      struct rusage usage;
      getrusage(RUSAGE_SELF, &usage);
      result.rss_peak_bytes = static_cast<uint64_t>(usage.ru_maxrss) * 1024;
      const std::string text = RepJson(result, tracer);
      size_t written = 0;
      while (written < text.size()) {
        const ssize_t n = write(fds[1], text.data() + written, text.size() - written);
        if (n <= 0) _exit(3);
        written += static_cast<size_t>(n);
      }
      close(fds[1]);
      _exit(result.failed == 0 ? 0 : 1);
    }
    close(fds[1]);
    std::string text;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n > 0) {
        text.append(buf, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!text.empty() && (clean || (WIFEXITED(status) && WEXITSTATUS(status) == 1))) {
      reps.push_back(std::move(text));
    } else {
      errors.push_back("repetition " + std::to_string(rep) + " died (status " +
                       std::to_string(status) + ")");
    }
    if (!clean) break;
  }

  std::ostringstream o;
  o << "{\"workload\":\"" << def.name << "\",\"seed\":" << seed
    << ",\"trace\":" << (trace ? 1 : 0) << ",\"input_bytes\":" << in.input_bytes
    << ",\"input_records\":" << (in.preload.size() + def.batches * kBatchRecords)
    << ",\"distinct_queries\":" << in.queries.size()
    << ",\"rss_baseline_bytes\":" << rss_baseline << ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    o << (i > 0 ? "," : "") << JsonString(errors[i]);
  }
  o << "],\"reps\":[";
  for (size_t i = 0; i < reps.size(); ++i) o << (i > 0 ? ",\n" : "\n") << reps[i];
  o << "]}\n";
  std::fputs(o.str().c_str(), stdout);
  return errors.empty() ? 0 : 1;
}
