#ifndef CIAO_STORAGE_SEGMENT_FILE_H_
#define CIAO_STORAGE_SEGMENT_FILE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/status.h"

namespace ciao {

/// A read-only mmap of one file. Mappings are immutable and refcounted:
/// the cache drops its reference on eviction while in-flight scans keep
/// theirs, and on POSIX an unlinked-but-mapped file stays readable, so
/// checkpoint GC never has to wait for scans to drain.
class MappedFile {
 public:
  static Result<std::shared_ptr<const MappedFile>> Map(
      const std::string& path);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view bytes() const {
    return std::string_view(static_cast<const char*>(addr_), len_);
  }

 private:
  MappedFile(void* addr, size_t len) : addr_(addr), len_(len) {}

  void* addr_ = nullptr;
  size_t len_ = 0;
};

class MappingCache;

/// Handle to a disk-resident segment file published by the SegmentStore.
/// The catalog's ColumnarSegment carries one of these instead of heap
/// bytes once a segment has been spilled; PinSegment() resolves it to a
/// byte view through the owning store's mapping cache.
struct SegmentFile {
  /// File name inside the store directory (the manifest key).
  std::string name;
  /// Full path on disk.
  std::string path;
  /// File size in bytes (== the columnar file's length).
  uint64_t size = 0;
  /// Whether the bytes have been fsynced (set by checkpoint; files are
  /// spilled rename-atomic but unsynced — the WAL covers their loss).
  std::atomic<bool> synced{false};
  /// The residency cache that maps this file on demand. shared_ptr so a
  /// segment snapshot held past SegmentStore teardown still pins safely.
  std::shared_ptr<MappingCache> cache;
};

/// A pinned view of one segment's file bytes, valid while this object
/// lives: either the in-memory heap bytes (mapping == nullptr) or an
/// mmap kept alive by `mapping` even if the cache evicts it meanwhile.
struct PinnedSegment {
  std::string_view bytes;
  std::shared_ptr<const MappedFile> mapping;
  /// True when this pin created the mapping (cache miss): the bytes were
  /// CRC-verified on the way in, and ScanStats counts it as a map fault.
  bool fresh_mapping = false;
};

/// LRU cache of file mappings bounded by `storage.memory_budget_bytes`.
/// A miss maps the file and CRC-verifies every row group once; hits are
/// a hash lookup. The verify pass runs Crc32's carry-less-multiply fold
/// (slicing-by-8 on CPUs without PCLMUL or under
/// `CIAO_DISABLE_SIMD=pclmul`), so a cold pin of a ~290 KB segment costs
/// ~17 µs of CRC beside ~45 µs of mmap, page faults and munmap. Two
/// pins racing on one miss may both map and verify; only the mapping
/// that takes the cache slot counts in mappings_created() and returns
/// `fresh_mapping`. Eviction drops only the cache's reference — pins
/// handed out stay valid. A single file larger than the whole budget
/// still maps (the budget bounds *cached* residency, not a scan's
/// working set).
class MappingCache {
 public:
  explicit MappingCache(uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  /// Returns a verified mapping of `file`, creating (and caching) it on
  /// miss.
  Result<PinnedSegment> Pin(const SegmentFile& file);

  /// Drops the cache entry for `path` (file GC'd by a checkpoint).
  void Invalidate(const std::string& path);

  /// Bytes of all currently cached mappings.
  uint64_t cached_bytes() const;
  /// Mappings created over the cache lifetime (misses).
  uint64_t mappings_created() const {
    return mappings_created_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::string path;
    std::shared_ptr<const MappedFile> mapping;
  };

  const uint64_t budget_bytes_;
  mutable std::mutex mu_;
  /// Front = most recently pinned.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t cached_bytes_ = 0;
  std::atomic<uint64_t> mappings_created_{0};

  /// Evicts from the LRU tail until the budget holds, sparing `keep`.
  /// Requires mu_ held.
  void EvictOverBudgetLocked(const std::string& keep);
};

struct ColumnarSegment;

/// Resolves a catalog segment to its file bytes: heap bytes directly, or
/// a disk-resident segment through its mapping cache (CRC-verified once
/// per fresh mapping — per-query readers then open with kTrust).
Result<PinnedSegment> PinSegment(const ColumnarSegment& segment);

}  // namespace ciao

#endif  // CIAO_STORAGE_SEGMENT_FILE_H_
