#include "columnar/column_vector.h"

namespace ciao::columnar {

ColumnVector::ColumnVector(ColumnType type) : type_(type) {}

ColumnVector::ColumnVector(ColumnType type, Storage storage)
    : type_(type),
      size_(storage.validity.size()),
      validity_(std::move(storage.validity)),
      ints_(std::move(storage.ints)),
      doubles_(std::move(storage.doubles)),
      bools_(std::move(storage.bools)),
      offsets_(std::move(storage.offsets)),
      buffer_(std::move(storage.buffer)) {}

void ColumnVector::DropDictionary() {
  if (!dict_values_.empty()) {
    dict_codes_.clear();
    dict_values_.clear();
  }
}

void ColumnVector::SetDictionary(std::vector<uint32_t> codes,
                                 std::vector<std::string> values) {
  if (codes.size() != size_) return;  // misaligned view is worse than none
  dict_codes_ = std::move(codes);
  dict_values_ = std::move(values);
}

void ColumnVector::AppendNull() {
  DropDictionary();
  validity_.PushBack(false);
  switch (type_) {
    case ColumnType::kInt64:
      ints_.push_back(0);
      break;
    case ColumnType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ColumnType::kBool:
      bools_.PushBack(false);
      break;
    case ColumnType::kString:
      offsets_.push_back(static_cast<uint32_t>(buffer_.size()));
      break;
  }
  ++size_;
}

void ColumnVector::AppendInt64(int64_t v) {
  DropDictionary();
  validity_.PushBack(true);
  ints_.push_back(v);
  ++size_;
}

void ColumnVector::AppendDouble(double v) {
  DropDictionary();
  validity_.PushBack(true);
  doubles_.push_back(v);
  ++size_;
}

void ColumnVector::AppendBool(bool v) {
  DropDictionary();
  validity_.PushBack(true);
  bools_.PushBack(v);
  ++size_;
}

void ColumnVector::AppendString(std::string_view v) {
  DropDictionary();
  validity_.PushBack(true);
  buffer_.append(v);
  offsets_.push_back(static_cast<uint32_t>(buffer_.size()));
  ++size_;
}

bool ColumnVector::Equals(const ColumnVector& other) const {
  if (type_ != other.type_ || size_ != other.size_) return false;
  if (!(validity_ == other.validity_)) return false;
  for (size_t i = 0; i < size_; ++i) {
    if (!IsValid(i)) continue;
    switch (type_) {
      case ColumnType::kInt64:
        if (GetInt64(i) != other.GetInt64(i)) return false;
        break;
      case ColumnType::kDouble:
        if (GetDouble(i) != other.GetDouble(i)) return false;
        break;
      case ColumnType::kBool:
        if (GetBool(i) != other.GetBool(i)) return false;
        break;
      case ColumnType::kString:
        if (GetString(i) != other.GetString(i)) return false;
        break;
    }
  }
  return true;
}

}  // namespace ciao::columnar
