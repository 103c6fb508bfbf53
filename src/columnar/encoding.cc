#include "columnar/encoding.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "columnar/wire.h"

namespace ciao::columnar {

namespace {

void EncodeStringPlain(const ColumnVector& col, std::string* out) {
  // Offsets (n+1) then the arena buffer.
  for (const uint32_t off : col.offsets()) wire::PutU32(off, out);
  wire::PutBytes(col.buffer(), out);
}

void EncodeStringDictionary(const ColumnVector& col,
                            const std::map<std::string_view, uint32_t>& dict,
                            std::string* out) {
  wire::PutU32(static_cast<uint32_t>(dict.size()), out);
  // Entries ordered by code: invert the map.
  std::vector<std::string_view> by_code(dict.size());
  for (const auto& [value, code] : dict) by_code[code] = value;
  for (const std::string_view value : by_code) wire::PutBytes(value, out);

  const uint8_t code_width = dict.size() <= 0xFF ? 1 : 2;
  wire::PutU8(code_width, out);
  for (size_t i = 0; i < col.size(); ++i) {
    // NULL rows get code 0 (any value; validity masks them out).
    uint32_t code = 0;
    if (col.IsValid(i)) code = dict.at(col.GetString(i));
    if (code_width == 1) {
      wire::PutU8(static_cast<uint8_t>(code), out);
    } else {
      wire::PutU8(static_cast<uint8_t>(code & 0xFF), out);
      wire::PutU8(static_cast<uint8_t>(code >> 8), out);
    }
  }
}

using Storage = ColumnVector::Storage;

// Calls fn(i) for every NULL row i, one validity word at a time, so
// columns without NULLs cost one word test per 64 rows.
template <typename Fn>
void ForEachNull(const BitVector& validity, Fn&& fn) {
  const size_t rows = validity.size();
  for (size_t wi = 0; wi < validity.num_words(); ++wi) {
    uint64_t nulls = ~validity.word(wi);
    if ((wi + 1) * 64 > rows) nulls &= (1ULL << (rows & 63)) - 1;
    while (nulls != 0) {
      fn(wi * 64 + static_cast<size_t>(__builtin_ctzll(nulls)));
      nulls &= nulls - 1;
    }
  }
}

// Reads `count` fixed-width values, checking the whole span up front.
Status ReadSpan(wire::Cursor* cursor, size_t count, size_t width,
                std::string_view* raw) {
  if (count > cursor->remaining() / width) {
    return Status::Corruption("columnar file truncated reading raw bytes");
  }
  return cursor->ReadRaw(count * width, raw);
}

template <typename T>
Status DecodeFixed(wire::Cursor* cursor, const BitVector& validity,
                   std::vector<T>* values) {
  const size_t rows = validity.size();
  std::string_view raw;
  CIAO_RETURN_IF_ERROR(ReadSpan(cursor, rows, sizeof(T), &raw));
  values->resize(rows);
  if (rows > 0) std::memcpy(values->data(), raw.data(), raw.size());
  ForEachNull(validity, [values](size_t i) { (*values)[i] = T{}; });
  return Status::OK();
}

Status DecodeStringPlain(wire::Cursor* cursor, Storage* st) {
  const size_t rows = st->validity.size();
  std::string_view raw;
  CIAO_RETURN_IF_ERROR(ReadSpan(cursor, rows + 1, sizeof(uint32_t), &raw));
  std::vector<uint32_t>& offsets = st->offsets;
  offsets.resize(rows + 1);
  std::memcpy(offsets.data(), raw.data(), raw.size());
  std::string_view buffer;
  CIAO_RETURN_IF_ERROR(cursor->ReadBytes(&buffer));
  if (offsets[0] != 0 || offsets[rows] != buffer.size()) {
    return Status::Corruption("string column: inconsistent offsets");
  }
  // Monotone offsets that end at buffer.size() are all in range.
  bool monotone = true;
  for (size_t i = 0; i < rows; ++i) monotone &= offsets[i] <= offsets[i + 1];
  if (!monotone) {
    return Status::Corruption("string column: offset out of range");
  }
  bool null_spans = false;
  ForEachNull(st->validity, [&](size_t i) {
    null_spans |= offsets[i] != offsets[i + 1];
  });
  if (!null_spans) {
    st->buffer.assign(buffer);
    return Status::OK();
  }
  // A NULL slot carrying bytes decodes as empty: rebuild the arena from
  // the valid spans only.
  st->buffer.reserve(buffer.size());
  uint32_t begin = 0;
  for (size_t i = 0; i < rows; ++i) {
    const uint32_t end = offsets[i + 1];
    if (st->validity.Get(i)) {
      st->buffer.append(buffer.substr(begin, end - begin));
    }
    begin = end;
    offsets[i + 1] = static_cast<uint32_t>(st->buffer.size());
  }
  return Status::OK();
}

Status DecodeStringDictionary(wire::Cursor* cursor, Storage* st,
                              std::vector<uint32_t>* codes,
                              std::vector<std::string>* values) {
  const BitVector& validity = st->validity;
  const size_t rows = validity.size();
  uint32_t dict_size = 0;
  CIAO_RETURN_IF_ERROR(cursor->ReadU32(&dict_size));
  // Each entry carries at least its u32 length prefix.
  if (dict_size > cursor->remaining() / sizeof(uint32_t)) {
    return Status::Corruption("dictionary column: truncated dictionary");
  }
  std::vector<std::string_view> entries(dict_size);
  for (std::string_view& entry : entries) {
    CIAO_RETURN_IF_ERROR(cursor->ReadBytes(&entry));
  }
  uint8_t code_width = 0;
  CIAO_RETURN_IF_ERROR(cursor->ReadU8(&code_width));
  if (code_width != 1 && code_width != 2) {
    return Status::Corruption("dictionary column: bad code width");
  }
  std::string_view raw;
  CIAO_RETURN_IF_ERROR(ReadSpan(cursor, rows, code_width, &raw));
  const auto* bytes = reinterpret_cast<const uint8_t*>(raw.data());
  codes->resize(rows);
  uint32_t* code = codes->data();
  if (code_width == 1) {
    for (size_t i = 0; i < rows; ++i) code[i] = bytes[i];
  } else {
    for (size_t i = 0; i < rows; ++i) {
      code[i] = bytes[2 * i] | (static_cast<uint32_t>(bytes[2 * i + 1]) << 8);
    }
  }
  // NULL rows carry code 0 whatever the file holds; every valid code
  // must index the dictionary.
  ForEachNull(validity, [code](size_t i) { code[i] = 0; });
  if (dict_size == 0) {
    if (validity.CountOnes() > 0) {
      return Status::Corruption("dictionary column: code out of range");
    }
  } else {
    uint32_t max_code = 0;
    for (size_t i = 0; i < rows; ++i) max_code = std::max(max_code, code[i]);
    if (max_code >= dict_size) {
      return Status::Corruption("dictionary column: code out of range");
    }
  }
  std::vector<uint32_t>& offsets = st->offsets;
  offsets.assign(rows + 1, 0);
  if (dict_size == 0) return Status::OK();  // every row is NULL

  // Arena offsets are a prefix sum of entry lengths over valid rows.
  // Entries are short and rows many, so each row is copied in 8-byte
  // words instead of one variable-length memcpy: the entries are laid out
  // in `padded` with 8 bytes of slack so a word read never leaves it.
  std::vector<uint32_t> lengths(dict_size);
  std::vector<size_t> starts(dict_size);
  std::string padded;
  for (uint32_t c = 0; c < dict_size; ++c) {
    lengths[c] = static_cast<uint32_t>(entries[c].size());
    starts[c] = padded.size();
    padded.append(entries[c]);
  }
  padded.append(8, '\0');
  uint64_t total = 0;
  for (size_t wi = 0; wi < validity.num_words(); ++wi) {
    const uint64_t valid = validity.word(wi);
    const size_t end = std::min(rows, (wi + 1) * 64);
    for (size_t i = wi * 64; i < end; ++i) {
      const uint64_t keep = 0 - ((valid >> (i & 63)) & 1);
      total += lengths[code[i]] & keep;
      offsets[i + 1] = static_cast<uint32_t>(total);
    }
  }
  if (total > UINT32_MAX) {
    return Status::Corruption("dictionary column: arena exceeds 4 GiB");
  }
  // Rows are written in order, so a word spilling past one row's span is
  // overwritten by the next row; the last spill lands in 8 bytes of slack.
  st->buffer.resize(total + 8);
  char* arena = st->buffer.data();
  for (size_t i = 0; i < rows; ++i) {
    const char* src = padded.data() + starts[code[i]];
    char* dst = arena + offsets[i];
    const uint32_t len = offsets[i + 1] - offsets[i];
    for (uint32_t k = 0; k < len; k += 8) std::memcpy(dst + k, src + k, 8);
  }
  st->buffer.resize(total);
  values->assign(entries.begin(), entries.end());
  return Status::OK();
}

}  // namespace

bool ShouldDictionaryEncode(size_t distinct, size_t rows) {
  return rows >= 16 && distinct <= 0xFFFF && distinct * 2 <= rows;
}

void EncodeColumn(const ColumnVector& column, std::string* out) {
  wire::PutU8(static_cast<uint8_t>(column.type()), out);

  Encoding encoding = Encoding::kPlain;
  std::map<std::string_view, uint32_t> dict;
  if (column.type() == ColumnType::kString) {
    for (size_t i = 0; i < column.size(); ++i) {
      if (column.IsValid(i)) dict.emplace(column.GetString(i), 0);
      if (dict.size() > 0xFFFF) break;
    }
    if (ShouldDictionaryEncode(dict.size(), column.size())) {
      encoding = Encoding::kDictionary;
      uint32_t next = 0;
      for (auto& [value, code] : dict) code = next++;
    }
  }
  wire::PutU8(static_cast<uint8_t>(encoding), out);
  wire::PutU64(column.size(), out);
  column.validity().SerializeTo(out);

  switch (column.type()) {
    case ColumnType::kInt64: {
      const auto& v = column.ints();
      const size_t bytes = v.size() * sizeof(int64_t);
      const size_t start = out->size();
      out->resize(start + bytes);
      if (bytes > 0) std::memcpy(out->data() + start, v.data(), bytes);
      break;
    }
    case ColumnType::kDouble: {
      const auto& v = column.doubles();
      const size_t bytes = v.size() * sizeof(double);
      const size_t start = out->size();
      out->resize(start + bytes);
      if (bytes > 0) std::memcpy(out->data() + start, v.data(), bytes);
      break;
    }
    case ColumnType::kBool:
      column.bools().SerializeTo(out);
      break;
    case ColumnType::kString:
      if (encoding == Encoding::kDictionary) {
        EncodeStringDictionary(column, dict, out);
      } else {
        EncodeStringPlain(column, out);
      }
      break;
  }
}

Result<ColumnVector> DecodeColumn(std::string_view buffer, size_t* offset) {
  wire::Cursor cursor(buffer, *offset);
  uint8_t type_byte = 0;
  uint8_t encoding_byte = 0;
  uint64_t rows64 = 0;
  CIAO_RETURN_IF_ERROR(cursor.ReadU8(&type_byte));
  CIAO_RETURN_IF_ERROR(cursor.ReadU8(&encoding_byte));
  CIAO_RETURN_IF_ERROR(cursor.ReadU64(&rows64));
  if (type_byte > static_cast<uint8_t>(ColumnType::kString)) {
    return Status::Corruption("column: unknown type byte");
  }
  if (encoding_byte > static_cast<uint8_t>(Encoding::kDictionary)) {
    return Status::Corruption("column: unknown encoding byte");
  }
  const auto type = static_cast<ColumnType>(type_byte);
  const auto encoding = static_cast<Encoding>(encoding_byte);
  const size_t rows = static_cast<size_t>(rows64);

  Storage st;
  size_t cpos = cursor.position();
  CIAO_ASSIGN_OR_RETURN(st.validity, BitVector::Deserialize(buffer, &cpos));
  cursor = wire::Cursor(buffer, cpos);
  if (st.validity.size() != rows) {
    return Status::Corruption("column: validity size mismatch");
  }

  std::vector<uint32_t> dict_codes;
  std::vector<std::string> dict_values;
  switch (type) {
    case ColumnType::kInt64:
      CIAO_RETURN_IF_ERROR(DecodeFixed(&cursor, st.validity, &st.ints));
      break;
    case ColumnType::kDouble:
      CIAO_RETURN_IF_ERROR(DecodeFixed(&cursor, st.validity, &st.doubles));
      break;
    case ColumnType::kBool: {
      size_t bpos = cursor.position();
      CIAO_ASSIGN_OR_RETURN(st.bools, BitVector::Deserialize(buffer, &bpos));
      cursor = wire::Cursor(buffer, bpos);
      if (st.bools.size() != rows) {
        return Status::Corruption("bool column: payload size mismatch");
      }
      CIAO_RETURN_IF_ERROR(st.bools.AndWith(st.validity));
      break;
    }
    case ColumnType::kString:
      CIAO_RETURN_IF_ERROR(
          encoding == Encoding::kDictionary
              ? DecodeStringDictionary(&cursor, &st, &dict_codes, &dict_values)
              : DecodeStringPlain(&cursor, &st));
      break;
  }
  ColumnVector col(type, std::move(st));
  // Keep the dictionary view alongside the materialized strings so
  // equality kernels can compare codes instead of bytes
  // (engine/vectorized_eval); empty dictionaries carry no view.
  if (!dict_values.empty()) {
    col.SetDictionary(std::move(dict_codes), std::move(dict_values));
  }
  *offset = cursor.position();
  return col;
}

}  // namespace ciao::columnar
