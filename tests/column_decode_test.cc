// Differential and mutation tests for columnar::DecodeColumn.
//
// The production decoder builds each column span by span. The oracle
// below is the row-at-a-time decoder it replaced: it reads the bytes with
// its own reader, parses bitmaps itself and rebuilds every column through
// the public Append API, so it shares no code with what it checks. Both
// decoders see encoder output, hand-built payloads (garbage under NULL
// slots, NULL string slots that carry bytes), every truncation prefix and
// seeded bit flips; they must agree on every input, and a decode either
// returns a Status or the oracle's column, never crashes.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "columnar/column_vector.h"
#include "columnar/encoding.h"
#include "common/random.h"

namespace ciao::columnar {
namespace {

// ---------- Oracle: row-at-a-time decode ----------

class OracleReader {
 public:
  OracleReader(std::string_view data, size_t pos) : data_(data), pos_(pos) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

  bool Raw(size_t len, std::string_view* out) {
    if (len > remaining()) return false;
    *out = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }
  bool U8(uint8_t* v) {
    std::string_view raw;
    if (!Raw(1, &raw)) return false;
    *v = static_cast<uint8_t>(raw[0]);
    return true;
  }
  bool U32(uint32_t* v) {
    std::string_view raw;
    if (!Raw(4, &raw)) return false;
    std::memcpy(v, raw.data(), 4);
    return true;
  }
  bool U64(uint64_t* v) {
    std::string_view raw;
    if (!Raw(8, &raw)) return false;
    std::memcpy(v, raw.data(), 8);
    return true;
  }
  bool Bytes(std::string_view* out) {
    uint32_t len = 0;
    return U32(&len) && Raw(len, out);
  }

 private:
  std::string_view data_;
  size_t pos_;
};

// [u64 n][ceil(n/64) words]; set padding bits are corrupt.
bool OracleBits(OracleReader* r, std::vector<bool>* bits) {
  uint64_t n = 0;
  if (!r->U64(&n)) return false;
  const uint64_t words = n / 64 + (n % 64 != 0);
  if (words > r->remaining() / 8) return false;
  bits->assign(n, false);
  for (uint64_t w = 0; w < words; ++w) {
    uint64_t word = 0;
    if (!r->U64(&word)) return false;
    for (int b = 0; b < 64; ++b) {
      if (((word >> b) & 1) == 0) continue;
      const uint64_t i = w * 64 + b;
      if (i >= n) return false;
      (*bits)[i] = true;
    }
  }
  return true;
}

Status Bad() { return Status::Corruption("oracle: corrupt column"); }

Result<ColumnVector> OracleDecode(std::string_view buffer, size_t* offset) {
  OracleReader r(buffer, *offset);
  uint8_t type_byte = 0;
  uint8_t encoding_byte = 0;
  uint64_t rows = 0;
  if (!r.U8(&type_byte) || !r.U8(&encoding_byte) || !r.U64(&rows)) {
    return Bad();
  }
  if (type_byte > static_cast<uint8_t>(ColumnType::kString) ||
      encoding_byte > static_cast<uint8_t>(Encoding::kDictionary)) {
    return Bad();
  }
  const auto type = static_cast<ColumnType>(type_byte);
  std::vector<bool> valid;
  if (!OracleBits(&r, &valid) || valid.size() != rows) return Bad();

  ColumnVector col(type);
  switch (type) {
    case ColumnType::kInt64:
    case ColumnType::kDouble: {
      for (size_t i = 0; i < rows; ++i) {
        std::string_view raw;
        if (!r.Raw(8, &raw)) return Bad();
        if (!valid[i]) {
          col.AppendNull();
        } else if (type == ColumnType::kInt64) {
          int64_t v = 0;
          std::memcpy(&v, raw.data(), 8);
          col.AppendInt64(v);
        } else {
          double v = 0;
          std::memcpy(&v, raw.data(), 8);
          col.AppendDouble(v);
        }
      }
      break;
    }
    case ColumnType::kBool: {
      std::vector<bool> payload;
      if (!OracleBits(&r, &payload) || payload.size() != rows) return Bad();
      for (size_t i = 0; i < rows; ++i) {
        if (valid[i]) {
          col.AppendBool(payload[i]);
        } else {
          col.AppendNull();
        }
      }
      break;
    }
    case ColumnType::kString: {
      if (encoding_byte == static_cast<uint8_t>(Encoding::kPlain)) {
        std::vector<uint32_t> offsets;
        for (size_t i = 0; i <= rows; ++i) {
          uint32_t off = 0;
          if (!r.U32(&off)) return Bad();
          offsets.push_back(off);
        }
        std::string_view arena;
        if (!r.Bytes(&arena)) return Bad();
        if (offsets[0] != 0 || offsets[rows] != arena.size()) return Bad();
        for (size_t i = 0; i < rows; ++i) {
          if (offsets[i + 1] < offsets[i] || offsets[i + 1] > arena.size()) {
            return Bad();
          }
          if (valid[i]) {
            col.AppendString(
                arena.substr(offsets[i], offsets[i + 1] - offsets[i]));
          } else {
            col.AppendNull();
          }
        }
        break;
      }
      uint32_t dict_size = 0;
      if (!r.U32(&dict_size)) return Bad();
      std::vector<std::string> entries;
      for (uint32_t c = 0; c < dict_size; ++c) {
        std::string_view entry;
        if (!r.Bytes(&entry)) return Bad();
        entries.emplace_back(entry);
      }
      uint8_t width = 0;
      if (!r.U8(&width) || (width != 1 && width != 2)) return Bad();
      std::vector<uint32_t> codes;
      for (size_t i = 0; i < rows; ++i) {
        uint8_t lo = 0;
        uint8_t hi = 0;
        if (!r.U8(&lo) || (width == 2 && !r.U8(&hi))) return Bad();
        const uint32_t code = lo | (static_cast<uint32_t>(hi) << 8);
        if (!valid[i]) {
          col.AppendNull();
          codes.push_back(0);
          continue;
        }
        if (code >= dict_size) return Bad();
        col.AppendString(entries[code]);
        codes.push_back(code);
      }
      if (dict_size > 0) col.SetDictionary(std::move(codes), entries);
      break;
    }
  }
  *offset = r.pos();
  return col;
}

// ---------- Comparison ----------

// Whole-column identity: values, validity, the zeroed placeholders under
// NULL slots, the string arena and the dictionary view.
::testing::AssertionResult SameColumn(const ColumnVector& want,
                                      const ColumnVector& got) {
  // Equals compares doubles with ==, which NaN payloads fail; the bytewise
  // storage check below covers doubles instead.
  if (got.type() != ColumnType::kDouble && !got.Equals(want)) {
    return ::testing::AssertionFailure() << "!Equals";
  }
  if (got.type() != want.type() || !(got.validity() == want.validity())) {
    return ::testing::AssertionFailure() << "type or validity differs";
  }
  if (got.ints() != want.ints() || got.offsets() != want.offsets() ||
      got.buffer() != want.buffer() || !(got.bools() == want.bools())) {
    return ::testing::AssertionFailure() << "storage differs";
  }
  if (got.doubles().size() != want.doubles().size() ||
      (!want.doubles().empty() &&
       std::memcmp(got.doubles().data(), want.doubles().data(),
                   want.doubles().size() * sizeof(double)) != 0)) {
    return ::testing::AssertionFailure() << "double storage differs";
  }
  if (got.has_dictionary() != want.has_dictionary() ||
      got.dict_codes() != want.dict_codes() ||
      got.dict_values() != want.dict_values()) {
    return ::testing::AssertionFailure() << "dictionary view differs";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameDecode(std::string_view bytes) {
  size_t want_pos = 0;
  size_t got_pos = 0;
  Result<ColumnVector> want = OracleDecode(bytes, &want_pos);
  Result<ColumnVector> got = DecodeColumn(bytes, &got_pos);
  if (want.ok() != got.ok()) {
    return ::testing::AssertionFailure()
           << "oracle " << (want.ok() ? "accepts" : "rejects")
           << ", decoder says " << got.status().ToString();
  }
  if (!got.ok()) {
    if (!got.status().IsCorruption()) {
      return ::testing::AssertionFailure() << got.status().ToString();
    }
    return ::testing::AssertionSuccess();
  }
  if (want_pos != got_pos) {
    return ::testing::AssertionFailure() << "offset " << got_pos << " vs "
                                         << want_pos;
  }
  return SameColumn(*want, *got);
}

// ---------- Inputs ----------

constexpr size_t kRowCounts[] = {0, 1, 63, 64, 65, 1000};

enum class Nulls { kNone, kAll, kWordEdges, kRandom };
constexpr Nulls kNullPatterns[] = {Nulls::kNone, Nulls::kAll, Nulls::kWordEdges,
                                   Nulls::kRandom};

std::vector<bool> Validity(Nulls nulls, size_t rows, Rng* rng) {
  std::vector<bool> valid(rows, true);
  for (size_t i = 0; i < rows; ++i) {
    switch (nulls) {
      case Nulls::kNone:
        break;
      case Nulls::kAll:
        valid[i] = false;
        break;
      case Nulls::kWordEdges:
        valid[i] = i % 64 != 0 && i % 64 != 63;
        break;
      case Nulls::kRandom:
        valid[i] = !rng->NextBool(0.1);
        break;
    }
  }
  return valid;
}

void PutU8(uint8_t v, std::string* out) { out->push_back(static_cast<char>(v)); }
void PutU32(uint32_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void PutU64(uint64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}
void PutBits(const std::vector<bool>& bits, std::string* out) {
  PutU64(bits.size(), out);
  for (size_t w = 0; w * 64 < bits.size(); ++w) {
    uint64_t word = 0;
    for (size_t b = 0; b < 64 && w * 64 + b < bits.size(); ++b) {
      if (bits[w * 64 + b]) word |= 1ULL << b;
    }
    PutU64(word, out);
  }
}

std::string Header(ColumnType type, Encoding encoding,
                   const std::vector<bool>& valid) {
  std::string out;
  PutU8(static_cast<uint8_t>(type), &out);
  PutU8(static_cast<uint8_t>(encoding), &out);
  PutU64(valid.size(), &out);
  PutBits(valid, &out);
  return out;
}

struct Case {
  std::string label;
  std::string bytes;
  size_t rows;
};

std::string Label(const char* kind, size_t rows, Nulls nulls) {
  return std::string(kind) + "/rows=" + std::to_string(rows) +
         "/nulls=" + std::to_string(static_cast<int>(nulls));
}

// Columns as the encoder writes them (placeholders under NULL slots).
std::vector<Case> EncoderCases() {
  struct Kind {
    const char* name;
    ColumnType type;
    size_t distinct;  // strings only
  };
  const Kind kinds[] = {{"int64", ColumnType::kInt64, 0},
                        {"double", ColumnType::kDouble, 0},
                        {"bool", ColumnType::kBool, 0},
                        {"string_dict8", ColumnType::kString, 8},
                        {"string_dict300", ColumnType::kString, 300},
                        {"string_plain", ColumnType::kString, 1u << 30}};
  std::vector<Case> cases;
  Rng rng(2024);
  for (const Kind& kind : kinds) {
    for (const size_t rows : kRowCounts) {
      for (const Nulls nulls : kNullPatterns) {
        const std::vector<bool> valid = Validity(nulls, rows, &rng);
        ColumnVector col(kind.type);
        for (size_t i = 0; i < rows; ++i) {
          if (!valid[i]) {
            col.AppendNull();
            continue;
          }
          switch (kind.type) {
            case ColumnType::kInt64:
              col.AppendInt64(static_cast<int64_t>(rng.Next()));
              break;
            case ColumnType::kDouble:
              col.AppendDouble(rng.NextGaussian() * 1e6);
              break;
            case ColumnType::kBool:
              col.AppendBool(rng.NextBool());
              break;
            case ColumnType::kString:
              col.AppendString("s" +
                               std::to_string(rng.NextBounded(kind.distinct)));
              break;
          }
        }
        Case c{Label(kind.name, rows, nulls), "", rows};
        EncodeColumn(col, &c.bytes);
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

// Hand-built payloads: random bytes under NULL slots, NULL string slots
// with non-empty spans, NULL dictionary codes past the dictionary, and
// both code widths.
std::vector<Case> HandBuiltCases() {
  std::vector<Case> cases;
  Rng rng(4048);
  for (const size_t rows : kRowCounts) {
    for (const Nulls nulls : kNullPatterns) {
      const std::vector<bool> valid = Validity(nulls, rows, &rng);
      for (const ColumnType type : {ColumnType::kInt64, ColumnType::kDouble}) {
        Case c{Label(type == ColumnType::kInt64 ? "raw_int64" : "raw_double",
                     rows, nulls),
               Header(type, Encoding::kPlain, valid), rows};
        // Random doubles can be NaN; the comparison is bytewise.
        for (size_t i = 0; i < rows; ++i) PutU64(rng.Next(), &c.bytes);
        cases.push_back(std::move(c));
      }
      {
        Case c{Label("raw_bool", rows, nulls),
               Header(ColumnType::kBool, Encoding::kPlain, valid), rows};
        std::vector<bool> payload(rows);
        for (size_t i = 0; i < rows; ++i) payload[i] = rng.NextBool();
        PutBits(payload, &c.bytes);
        cases.push_back(std::move(c));
      }
      for (const bool null_spans : {false, true}) {
        Case c{Label(null_spans ? "raw_plain_null_spans" : "raw_plain", rows,
                     nulls),
               Header(ColumnType::kString, Encoding::kPlain, valid), rows};
        std::string arena;
        std::vector<uint32_t> offsets{0};
        for (size_t i = 0; i < rows; ++i) {
          if (valid[i] || null_spans) {
            arena += rng.NextIdentifier(static_cast<int>(rng.NextBounded(7)));
          }
          offsets.push_back(static_cast<uint32_t>(arena.size()));
        }
        for (const uint32_t off : offsets) PutU32(off, &c.bytes);
        PutU32(static_cast<uint32_t>(arena.size()), &c.bytes);
        c.bytes += arena;
        cases.push_back(std::move(c));
      }
      for (const uint32_t dict_size : {0u, 5u, 300u}) {
        Case c{Label(("raw_dict" + std::to_string(dict_size)).c_str(), rows,
                     nulls),
               Header(ColumnType::kString, Encoding::kDictionary, valid),
               rows};
        // A dictionary with no entries only decodes all-NULL columns;
        // elsewhere the oracle and the decoder must both reject it.
        PutU32(dict_size, &c.bytes);
        for (uint32_t e = 0; e < dict_size; ++e) {
          const std::string entry =
              rng.NextIdentifier(static_cast<int>(rng.NextBounded(9)));
          PutU32(static_cast<uint32_t>(entry.size()), &c.bytes);
          c.bytes += entry;
        }
        const uint8_t width = dict_size > 0xFF ? 2 : 1;
        PutU8(width, &c.bytes);
        for (size_t i = 0; i < rows; ++i) {
          uint32_t code = static_cast<uint32_t>(rng.Next() & 0xFFFF);
          if (valid[i] && dict_size > 0) code %= dict_size;
          PutU8(static_cast<uint8_t>(code), &c.bytes);
          if (width == 2) PutU8(static_cast<uint8_t>(code >> 8), &c.bytes);
        }
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

std::vector<Case> AllCases() {
  std::vector<Case> cases = EncoderCases();
  for (Case& c : HandBuiltCases()) cases.push_back(std::move(c));
  return cases;
}

// ---------- Tests ----------

TEST(ColumnDecodeDiffTest, EncoderOutputMatchesOracleAndRoundTrips) {
  for (const Case& c : EncoderCases()) {
    ASSERT_TRUE(SameDecode(c.bytes)) << c.label;
    size_t pos = 0;
    auto got = DecodeColumn(c.bytes, &pos);
    ASSERT_TRUE(got.ok()) << c.label << ": " << got.status().ToString();
    EXPECT_EQ(pos, c.bytes.size()) << c.label;
    // Re-encoding the decoded column reproduces the file bytes.
    std::string again;
    EncodeColumn(*got, &again);
    EXPECT_EQ(again, c.bytes) << c.label;
  }
}

TEST(ColumnDecodeDiffTest, HandBuiltPayloadsMatchOracle) {
  size_t accepted = 0;
  for (const Case& c : HandBuiltCases()) {
    ASSERT_TRUE(SameDecode(c.bytes)) << c.label;
    size_t pos = 0;
    if (DecodeColumn(c.bytes, &pos).ok()) ++accepted;
  }
  // Only empty dictionaries over columns with valid rows are rejected.
  EXPECT_GT(accepted, 150u);
}

TEST(ColumnDecodeDiffTest, NullSlotsHoldZeroedPlaceholders) {
  for (const Case& c : HandBuiltCases()) {
    size_t pos = 0;
    auto col = DecodeColumn(c.bytes, &pos);
    if (!col.ok()) continue;
    for (size_t i = 0; i < col->size(); ++i) {
      if (col->IsValid(i)) continue;
      switch (col->type()) {
        case ColumnType::kInt64:
          EXPECT_EQ(col->GetInt64(i), 0) << c.label << " row " << i;
          break;
        case ColumnType::kDouble:
          EXPECT_EQ(col->GetDouble(i), 0.0) << c.label << " row " << i;
          break;
        case ColumnType::kBool:
          EXPECT_FALSE(col->GetBool(i)) << c.label << " row " << i;
          break;
        case ColumnType::kString:
          EXPECT_TRUE(col->GetString(i).empty()) << c.label << " row " << i;
          if (col->has_dictionary()) {
            EXPECT_EQ(col->dict_codes()[i], 0u) << c.label << " row " << i;
          }
          break;
      }
    }
  }
}

TEST(ColumnDecodeDiffTest, PlainNullSlotWithBytesDecodesEmpty) {
  std::string bytes = Header(ColumnType::kString, Encoding::kPlain,
                             {true, false, true});
  for (const uint32_t off : {0u, 2u, 5u, 6u}) PutU32(off, &bytes);
  PutU32(6, &bytes);
  bytes += "abXYZc";
  ASSERT_TRUE(SameDecode(bytes));
  size_t pos = 0;
  auto col = DecodeColumn(bytes, &pos);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  EXPECT_EQ(col->GetString(0), "ab");
  EXPECT_TRUE(col->GetString(1).empty());
  EXPECT_EQ(col->GetString(2), "c");
  EXPECT_EQ(col->buffer(), "abc");
}

TEST(ColumnDecodeMutationTest, EveryTruncationPrefixIsRejectedByBoth) {
  for (const Case& c : AllCases()) {
    // Every prefix of every column up to 65 rows; at 1000 rows one NULL
    // pattern per kind keeps the quadratic sweep short under ASan.
    if (c.rows == 1000 && c.label.find("nulls=3") == std::string::npos) {
      continue;
    }
    for (size_t len = 0; len < c.bytes.size(); ++len) {
      const std::string_view prefix = std::string_view(c.bytes).substr(0, len);
      ASSERT_TRUE(SameDecode(prefix)) << c.label << " prefix " << len;
      size_t pos = 0;
      ASSERT_FALSE(DecodeColumn(prefix, &pos).ok())
          << c.label << " prefix " << len;
    }
  }
}

TEST(ColumnDecodeMutationTest, SeededBitFlipsAgreeWithOracle) {
  Rng rng(99);
  size_t accepted = 0;
  size_t mutants = 0;
  for (const Case& c : AllCases()) {
    if (c.bytes.empty()) continue;
    for (int m = 0; m < 48; ++m) {
      std::string bytes = c.bytes;
      // Half the mutants hit the header and validity bitmap, where
      // lengths and sizes live; the rest land anywhere.
      const size_t span = m % 2 == 0 ? std::min<size_t>(bytes.size(), 48)
                                     : bytes.size();
      const int flips = 1 + static_cast<int>(rng.NextBounded(3));
      for (int f = 0; f < flips; ++f) {
        const size_t at = rng.NextBounded(span);
        if (rng.NextBool(0.2)) {
          bytes[at] = '\xFF';
        } else {
          bytes[at] ^= static_cast<char>(1u << rng.NextBounded(8));
        }
      }
      ASSERT_TRUE(SameDecode(bytes)) << c.label << " mutant " << m;
      size_t pos = 0;
      accepted += DecodeColumn(bytes, &pos).ok();
      ++mutants;
    }
  }
  // Payload flips mostly decode (to the oracle's column); header flips
  // mostly fail. Both outcomes must be exercised.
  EXPECT_GT(accepted, mutants / 10);
  EXPECT_LT(accepted, mutants - mutants / 10);
}

TEST(ColumnDecodeMutationTest, HugeDeclaredSizesFailCleanly) {
  // Bool column whose validity claims 2^64 - 1 rows with no payload: the
  // bitmap size check used to wrap and hand back an empty bitmap.
  std::string bool_col;
  PutU8(static_cast<uint8_t>(ColumnType::kBool), &bool_col);
  PutU8(0, &bool_col);
  PutU64(~0ULL, &bool_col);
  PutU64(~0ULL, &bool_col);
  PutU64(~0ULL, &bool_col);
  ASSERT_TRUE(SameDecode(bool_col));
  size_t pos = 0;
  EXPECT_TRUE(DecodeColumn(bool_col, &pos).status().IsCorruption());

  // Dictionary claiming 2^32 - 1 entries in a few bytes.
  std::string dict = Header(ColumnType::kString, Encoding::kDictionary,
                            {true, true});
  PutU32(~0u, &dict);
  PutU32(0, &dict);
  ASSERT_TRUE(SameDecode(dict));
  pos = 0;
  EXPECT_TRUE(DecodeColumn(dict, &pos).status().IsCorruption());
}

}  // namespace
}  // namespace ciao::columnar
