#ifndef CIAO_COLUMNAR_ENCODING_H_
#define CIAO_COLUMNAR_ENCODING_H_

#include <string>
#include <string_view>

#include "columnar/column_vector.h"
#include "common/status.h"

namespace ciao::columnar {

/// Physical encodings. The encoder picks automatically: strings switch to
/// dictionary when the distinct count is small (low-cardinality columns
/// like log levels, age groups); everything else is PLAIN. Bools are
/// bit-packed inside PLAIN.
enum class Encoding : uint8_t {
  kPlain = 0,
  kDictionary = 1,
};

/// Encodes a column: [type u8][encoding u8][num_rows u64][validity]
/// [payload]. The encoding choice is embedded so readers are
/// self-describing.
void EncodeColumn(const ColumnVector& column, std::string* out);

/// Decodes one column starting at `*offset`; advances past it. The
/// contract, which tests/column_decode_test.cc checks against a
/// row-at-a-time oracle:
///  - Checked up front. Every length, offset and code is validated before
///    the payload is copied: each span (values, offsets, codes) is
///    bounds-checked once as a whole, string offsets must rise from 0 to
///    the arena size, and every valid row's dictionary code must index the
///    dictionary. Any failure is Corruption, never UB or a huge
///    allocation.
///  - Zeroed NULL slots. Whatever bytes the file holds under a NULL row,
///    the column holds 0, 0.0, false or an empty string there (a NULL
///    plain-string slot whose span is non-empty decodes as empty), and a
///    dictionary code of 0.
///  - Dictionary view. A dictionary-encoded column with a non-empty
///    dictionary comes back with the view installed (has_dictionary(),
///    dict_codes(), dict_values()) beside the materialized strings.
/// The column is built span at a time and adopted through
/// ColumnVector's Storage constructor, not appended row by row.
Result<ColumnVector> DecodeColumn(std::string_view buffer, size_t* offset);

/// Heuristic used by EncodeColumn, exposed for tests: dictionary pays off
/// when distinct < 1/2 of rows and fits narrow codes.
bool ShouldDictionaryEncode(size_t distinct, size_t rows);

}  // namespace ciao::columnar

#endif  // CIAO_COLUMNAR_ENCODING_H_
