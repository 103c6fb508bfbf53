#include "storage/segment_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "columnar/file_reader.h"
#include "storage/catalog.h"

namespace ciao {

Result<std::shared_ptr<const MappedFile>> MappedFile::Map(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("mmap open " + path + ": " + std::strerror(errno));
  }
  struct ::stat st;
  if (::fstat(fd, &st) != 0) {
    const Status failed =
        Status::IOError("mmap stat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return failed;
  }
  const size_t len = static_cast<size_t>(st.st_size);
  void* addr = nullptr;
  if (len > 0) {
    addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const Status failed =
          Status::IOError("mmap " + path + ": " + std::strerror(errno));
      ::close(fd);
      return failed;
    }
  }
  ::close(fd);  // the mapping outlives the descriptor
  return std::shared_ptr<const MappedFile>(new MappedFile(addr, len));
}

MappedFile::~MappedFile() {
  if (addr_ != nullptr && len_ > 0) ::munmap(addr_, len_);
}

Result<PinnedSegment> MappingCache::Pin(const SegmentFile& file) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(file.path);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      return PinnedSegment{it->second->mapping->bytes(), it->second->mapping,
                           /*fresh_mapping=*/false};
    }
  }

  // Miss: map and verify outside the lock, so a large file's CRC pass
  // never stalls concurrent pins of other (or already-cached) segments.
  // Two threads may race to map the same file; both mappings are valid,
  // the first to insert wins the cache slot (and alone counts as created,
  // matching the one fresh_mapping pin) and the loser's unmaps when its
  // pins drop.
  CIAO_ASSIGN_OR_RETURN(std::shared_ptr<const MappedFile> mapping,
                        MappedFile::Map(file.path));
  CIAO_ASSIGN_OR_RETURN(
      const columnar::TableReader reader,
      columnar::TableReader::OpenBorrowed(mapping->bytes(),
                                          columnar::ChecksumMode::kTrust));
  CIAO_RETURN_IF_ERROR(reader.VerifyAllGroups());

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(file.path);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return PinnedSegment{it->second->mapping->bytes(), it->second->mapping,
                         /*fresh_mapping=*/false};
  }
  mappings_created_.fetch_add(1, std::memory_order_relaxed);
  lru_.push_front(Entry{file.path, mapping});
  index_[file.path] = lru_.begin();
  cached_bytes_ += mapping->bytes().size();
  EvictOverBudgetLocked(file.path);
  return PinnedSegment{mapping->bytes(), std::move(mapping),
                       /*fresh_mapping=*/true};
}

void MappingCache::EvictOverBudgetLocked(const std::string& keep) {
  while (cached_bytes_ > budget_bytes_ && !lru_.empty()) {
    auto victim = std::prev(lru_.end());
    if (victim->path == keep) break;  // never evict the pin being served
    cached_bytes_ -= victim->mapping->bytes().size();
    index_.erase(victim->path);
    lru_.erase(victim);
  }
}

void MappingCache::Invalidate(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(path);
  if (it == index_.end()) return;
  cached_bytes_ -= it->second->mapping->bytes().size();
  lru_.erase(it->second);
  index_.erase(it);
}

uint64_t MappingCache::cached_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_bytes_;
}

Result<PinnedSegment> PinSegment(const ColumnarSegment& segment) {
  if (segment.disk == nullptr) {
    return PinnedSegment{std::string_view(segment.file_bytes), nullptr,
                         /*fresh_mapping=*/false};
  }
  return segment.disk->cache->Pin(*segment.disk);
}

}  // namespace ciao
