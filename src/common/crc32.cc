#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/crc32_internal.h"
#include "common/simd_gate.h"

#if defined(__x86_64__) || defined(__i386__)
#define CIAO_CRC32_HAS_FOLD 1
#include <immintrin.h>
#else
#define CIAO_CRC32_HAS_FOLD 0
#endif

namespace ciao {

namespace {

/// Inputs shorter than one 4×16-byte fold block go to slicing-by-8.
constexpr size_t kFoldMinBytes = 64;

/// Slicing-by-8 table set: table[0] is the classic byte-at-a-time table,
/// table[t][b] is the CRC of byte b followed by t zero bytes. Eight bytes
/// are then folded per step with eight independent lookups instead of an
/// 8-long dependency chain — ~6-8x over the byte loop.
std::array<std::array<uint32_t, 256>, 8> BuildTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (size_t t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFF] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

/// Advances the raw (already inverted) CRC register `c` over `len` bytes.
uint32_t UpdateSlicing8(uint32_t c, const unsigned char* p, size_t len) {
  static const auto kTables = BuildTables();
  while (len >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (size_t i = 0; i < len; ++i) {
    c = kTables[0][(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#if CIAO_CRC32_HAS_FOLD

// Carry-less-multiply folding after Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in
// the bit-reflected domain of the IEEE polynomial. Compiled for
// PCLMUL+SSE4.1 by attribute only and called only after a runtime CPU
// check, so the rest of the library keeps the baseline ISA.
#define CIAO_CRC32_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

/// One 128-bit fold over distance d: multiplies the two 64-bit halves of
/// `acc` by the matching halves of `k` (x^(d+32) and x^(d-32) mod P in
/// the paper's reflected notation) and adds the 16 bytes d bits on.
CIAO_CRC32_FOLD_TARGET inline __m128i Fold16(__m128i acc, __m128i k,
                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

CIAO_CRC32_FOLD_TARGET inline __m128i Load16(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances the raw CRC register `c` over `len` bytes; `len` is a
/// multiple of 16 and at least kFoldMinBytes.
CIAO_CRC32_FOLD_TARGET uint32_t UpdateFold(uint32_t c, const unsigned char* p,
                                           size_t len) {
  // _mm_set_epi64x takes (high, low).
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // 512 bits
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // 128 bits
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);              // 64 bits
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four independent accumulators hide the multiplier latency.
  __m128i x1 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load16(p + 16);
  __m128i x3 = Load16(p + 32);
  __m128i x4 = Load16(p + 48);
  p += 64;
  len -= 64;
  while (len >= 64) {
    x1 = Fold16(x1, k1k2, Load16(p));
    x2 = Fold16(x2, k1k2, Load16(p + 16));
    x3 = Fold16(x3, k1k2, Load16(p + 32));
    x4 = Fold16(x4, k1k2, Load16(p + 48));
    p += 64;
    len -= 64;
  }

  // Fold the four lanes into one, then any remaining 16-byte blocks.
  x1 = Fold16(x1, k3k4, x2);
  x1 = Fold16(x1, k3k4, x3);
  x1 = Fold16(x1, k3k4, x4);
  while (len >= 16) {
    x1 = Fold16(x1, k3k4, Load16(p));
    p += 16;
    len -= 16;
  }

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  // 64 -> 32 bits.
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction modulo P with mu = floor(x^64 / P).
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // CIAO_CRC32_HAS_FOLD

}  // namespace

namespace internal {

uint32_t Crc32Portable(const void* data, size_t len, uint32_t seed) {
  return UpdateSlicing8(seed ^ 0xFFFFFFFFU,
                        static_cast<const unsigned char*>(data), len) ^
         0xFFFFFFFFU;
}

bool Crc32FoldSupported() {
#if CIAO_CRC32_HAS_FOLD
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return supported;
#else
  return false;
#endif
}

uint32_t Crc32Folded(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFU;
#if CIAO_CRC32_HAS_FOLD
  if (len >= kFoldMinBytes) {
    const size_t folded = len & ~size_t{15};
    c = UpdateFold(c, p, folded);
    p += folded;
    len -= folded;
  }
#endif
  return UpdateSlicing8(c, p, len) ^ 0xFFFFFFFFU;
}

}  // namespace internal

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  return internal::Crc32FoldSupported() &&
                 !SimdFeatureDisabled(SimdFeature::kPclmul)
             ? internal::Crc32Folded(data, len, seed)
             : internal::Crc32Portable(data, len, seed);
}

}  // namespace ciao
