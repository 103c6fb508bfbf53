#include "bitvec/bitvector_set.h"

#include <cstring>

namespace ciao {

BitVectorSet::BitVectorSet(size_t num_predicates, size_t num_records)
    : vectors_(num_predicates, BitVector(num_records)) {}

BitVector BitVectorSet::UnionAll() const {
  if (vectors_.empty()) return BitVector(0);
  // Single word-major pass: each output word is the OR across all
  // vectors' corresponding words, written once (vs. one full
  // read-modify-write sweep per vector). Sizes are uniform by
  // construction, padding bits are zero in every input so the union's
  // padding stays zero.
  BitVector out = vectors_[0];
  for (size_t wi = 0; wi < out.num_words(); ++wi) {
    uint64_t w = out.word(wi);
    for (size_t v = 1; v < vectors_.size(); ++v) {
      w |= vectors_[v].word(wi);
    }
    out.SetWord(wi, w);
  }
  return out;
}

Result<BitVector> BitVectorSet::Intersect(
    const std::vector<uint32_t>& predicate_ids) const {
  if (predicate_ids.empty()) {
    return Status::InvalidArgument("Intersect: no predicate ids");
  }
  std::vector<const BitVector*> ptrs;
  ptrs.reserve(predicate_ids.size());
  for (const uint32_t id : predicate_ids) {
    if (id >= vectors_.size()) {
      return Status::OutOfRange("Intersect: predicate id out of range");
    }
    ptrs.push_back(&vectors_[id]);
  }
  return BitVector::IntersectAll(ptrs);
}

Result<BitVectorSet> BitVectorSet::CompactBy(const BitVector& mask) const {
  BitVectorSet out;
  out.vectors_.reserve(vectors_.size());
  for (const BitVector& v : vectors_) {
    CIAO_ASSIGN_OR_RETURN(BitVector compacted, v.CompactBy(mask));
    out.vectors_.push_back(std::move(compacted));
  }
  return out;
}

void BitVectorSet::SerializeTo(std::string* out) const {
  uint32_t count = static_cast<uint32_t>(vectors_.size());
  char buf[4];
  std::memcpy(buf, &count, 4);
  out->append(buf, 4);
  for (const BitVector& v : vectors_) v.SerializeTo(out);
}

Result<BitVectorSet> BitVectorSet::Deserialize(std::string_view buffer,
                                               size_t* offset) {
  if (*offset > buffer.size() || buffer.size() - *offset < 4) {
    return Status::Corruption("BitVectorSet: truncated count");
  }
  uint32_t count = 0;
  std::memcpy(&count, buffer.data() + *offset, 4);
  *offset += 4;
  // The count is untrusted: every vector needs at least its 8-byte size
  // header, so a count the remaining bytes cannot hold is corrupt rather
  // than a reason to reserve gigabytes.
  if (count > (buffer.size() - *offset) / 8) {
    return Status::Corruption("BitVectorSet: count exceeds payload");
  }
  BitVectorSet out;
  out.vectors_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CIAO_ASSIGN_OR_RETURN(BitVector v, BitVector::Deserialize(buffer, offset));
    out.vectors_.push_back(std::move(v));
  }
  // All vectors must be the same length (one bit per record).
  for (const BitVector& v : out.vectors_) {
    if (v.size() != out.vectors_[0].size()) {
      return Status::Corruption("BitVectorSet: inconsistent vector sizes");
    }
  }
  return out;
}

Result<BitVectorSetView> BitVectorSetView::Parse(std::string_view buffer,
                                                 size_t* offset) {
  if (*offset > buffer.size() || buffer.size() - *offset < 4) {
    return Status::Corruption("BitVectorSetView: truncated count");
  }
  uint32_t count = 0;
  std::memcpy(&count, buffer.data() + *offset, 4);
  *offset += 4;
  BitVectorSetView view;
  view.count_ = count;
  if (count == 0) return view;

  const size_t available = buffer.size() - *offset;
  if (available < 8) {
    return Status::Corruption("BitVectorSetView: truncated size header");
  }
  uint64_t n = 0;
  std::memcpy(&n, buffer.data() + *offset, 8);
  // stride * count must fit in `available`; check each factor by
  // division so neither n + 63 nor the product can wrap.
  const uint64_t words = n / 64 + (n % 64 != 0);
  if (words > (available - 8) / 8 ||
      count > available / (8 + words * 8)) {
    return Status::Corruption("BitVectorSetView: truncated payload");
  }
  view.num_records_ = static_cast<size_t>(n);
  view.stride_ = 8 + words * 8;
  const size_t total = view.stride_ * count;
  view.payload_ = buffer.substr(*offset, total);
  *offset += total;
  return view;
}

Result<BitVector> BitVectorSetView::Get(uint32_t predicate_id) const {
  if (predicate_id >= count_) {
    return Status::OutOfRange("BitVectorSetView: predicate id out of range");
  }
  size_t offset = stride_ * predicate_id;
  CIAO_ASSIGN_OR_RETURN(BitVector v,
                        BitVector::Deserialize(payload_, &offset));
  // The stride was derived from vector 0; a shorter vector mid-set would
  // make every later offset garbage, so reject it here.
  if (v.size() != num_records_) {
    return Status::Corruption("BitVectorSetView: inconsistent vector sizes");
  }
  return v;
}

Result<BitVector> BitVectorSetView::Intersect(
    const std::vector<uint32_t>& predicate_ids) const {
  if (predicate_ids.empty()) {
    return Status::InvalidArgument("Intersect: no predicate ids");
  }
  CIAO_ASSIGN_OR_RETURN(BitVector acc, Get(predicate_ids[0]));
  for (size_t i = 1; i < predicate_ids.size(); ++i) {
    CIAO_ASSIGN_OR_RETURN(const BitVector v, Get(predicate_ids[i]));
    CIAO_RETURN_IF_ERROR(acc.AndWith(v));
  }
  return acc;
}

}  // namespace ciao
