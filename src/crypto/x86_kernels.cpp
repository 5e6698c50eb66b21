// x86 kernels for the crypto hot path: AES-NI block encryption and 8-way
// interleaved CTR, PCLMULQDQ GHASH with a 4-block aggregated reduction,
// and SHA-NI SHA-256 compression.
//
// Each function carries its own target attribute instead of a global
// -maes/-msha flag, so the binaries still run on CPUs without these
// instructions; callers gate every call on has_aes_clmul()/has_sha_ni().
// Only SSE encodings are used, which need no OS (XSAVE) support check.
// Output is byte-identical to the portable code
// (tests/crypto_dispatch_test.cpp compares the two).
#include "crypto/kernels.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace securecloud::crypto::kernels {

#if defined(__x86_64__)

#define SC_TARGET_AES __attribute__((target("aes,pclmul,sse4.1")))
#define SC_TARGET_SHA __attribute__((target("sha,sse4.1")))

bool has_aes_clmul() {
  static const bool ok = [] {
    __builtin_cpu_init();  // may run from a static initializer
    return __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

bool has_sha_ni() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

namespace {

inline __m128i load(const void* p) { return _mm_loadu_si128(static_cast<const __m128i*>(p)); }
inline void store(void* p, __m128i v) { _mm_storeu_si128(static_cast<__m128i*>(p), v); }

// ---- AES ---------------------------------------------------------------

struct RoundKeys {
  __m128i k[15];
  int rounds;
};

SC_TARGET_AES inline RoundKeys load_round_keys(const std::uint8_t* bytes, int rounds) {
  RoundKeys rk;
  rk.rounds = rounds;
  for (int r = 0; r <= rounds; ++r) rk.k[r] = load(bytes + 16 * r);
  return rk;
}

SC_TARGET_AES inline __m128i encrypt1(const RoundKeys& rk, __m128i b) {
  b = _mm_xor_si128(b, rk.k[0]);
  for (int r = 1; r < rk.rounds; ++r) b = _mm_aesenc_si128(b, rk.k[r]);
  return _mm_aesenclast_si128(b, rk.k[rk.rounds]);
}

// The counter block for 32-bit counter value `ctr`: `base` with its last
// four bytes replaced by ctr, big-endian.
SC_TARGET_AES inline __m128i counter_block(__m128i base, std::uint32_t ctr) {
  return _mm_insert_epi32(base, static_cast<int>(__builtin_bswap32(ctr)), 3);
}

// ---- GHASH -------------------------------------------------------------
//
// Elements are held byte-reflected (the block's bytes reversed), so bit j
// of the 128-bit lane is the coefficient of x^(127-j). The 255-bit carry-
// less product of two such values is shifted left one bit and reduced mod
// x^128 + x^7 + x^2 + x + 1 (Gueron & Kounavis, "Intel Carry-Less
// Multiplication Instruction and its Usage for Computing the GCM Mode").
// Both steps are linear, so the products of four blocks are summed first
// and shifted/reduced once.

SC_TARGET_AES inline __m128i reflect(__m128i x) {
  return _mm_shuffle_epi8(x, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

struct Product {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

// p += a · b, unreduced (schoolbook: four 64x64 carry-less multiplies).
SC_TARGET_AES inline void clmul_add(Product& p, __m128i a, __m128i b) {
  p.lo = _mm_xor_si128(p.lo, _mm_clmulepi64_si128(a, b, 0x00));
  p.hi = _mm_xor_si128(p.hi, _mm_clmulepi64_si128(a, b, 0x11));
  p.mid = _mm_xor_si128(p.mid, _mm_clmulepi64_si128(a, b, 0x01));
  p.mid = _mm_xor_si128(p.mid, _mm_clmulepi64_si128(a, b, 0x10));
}

SC_TARGET_AES inline __m128i reduce(const Product& p) {
  __m128i lo = _mm_xor_si128(p.lo, _mm_slli_si128(p.mid, 8));
  __m128i hi = _mm_xor_si128(p.hi, _mm_srli_si128(p.mid, 8));

  // Shift the 256-bit hi:lo left by one bit.
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  hi = _mm_or_si128(hi, _mm_srli_si128(lo_carry, 12));
  hi = _mm_or_si128(hi, _mm_slli_si128(hi_carry, 4));
  lo = _mm_or_si128(lo, _mm_slli_si128(lo_carry, 4));

  // Fold the low half into the high half.
  __m128i t = _mm_xor_si128(_mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
                            _mm_slli_epi32(lo, 25));
  const __m128i carry = _mm_srli_si128(t, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  t = _mm_xor_si128(_mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
                    _mm_srli_epi32(lo, 7));
  t = _mm_xor_si128(t, carry);
  lo = _mm_xor_si128(lo, t);
  return _mm_xor_si128(hi, lo);
}

SC_TARGET_AES inline __m128i gf_mul(__m128i a, __m128i b) {
  Product p;
  clmul_add(p, a, b);
  return reduce(p);
}

// ---- SHA-256 -----------------------------------------------------------

// The next four message-schedule words W[t..t+3] from the previous
// sixteen, held as w_16 = W[t-16..t-13], ..., w_4 = W[t-4..t-1].
SC_TARGET_SHA inline __m128i sha256_schedule(__m128i w_16, __m128i w_12, __m128i w_8,
                                             __m128i w_4) {
  __m128i w = _mm_sha256msg1_epu32(w_16, w_12);  // W[t-16] + σ0(W[t-15])
  w = _mm_add_epi32(w, _mm_alignr_epi8(w_4, w_8, 4));  // + W[t-7]
  return _mm_sha256msg2_epu32(w, w_4);  // + σ1(W[t-2])
}

}  // namespace

SC_TARGET_AES void aes_encrypt_x86(const std::uint8_t* round_keys, int rounds,
                                   const std::uint8_t in[16], std::uint8_t out[16]) {
  store(out, encrypt1(load_round_keys(round_keys, rounds), load(in)));
}

SC_TARGET_AES void aes_ctr_xor_x86(const std::uint8_t* round_keys, int rounds,
                                   const std::uint8_t iv[16], std::uint8_t* data,
                                   std::size_t len) {
  const RoundKeys rk = load_round_keys(round_keys, rounds);
  const __m128i base = load(iv);
  std::uint32_t ctr = static_cast<std::uint32_t>(_mm_extract_epi32(base, 3));
  ctr = __builtin_bswap32(ctr);

  std::size_t off = 0;
  for (; off + 128 <= len; off += 128, ctr += 8) {
    __m128i b[8];
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
      b[i] = _mm_xor_si128(counter_block(base, ctr + static_cast<std::uint32_t>(i)), rk.k[0]);
    }
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) b[i] = _mm_aesenc_si128(b[i], rk.k[r]);
    }
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
      b[i] = _mm_aesenclast_si128(b[i], rk.k[rounds]);
      std::uint8_t* p = data + off + 16 * i;
      store(p, _mm_xor_si128(load(p), b[i]));
    }
  }
  for (; off < len; off += 16, ++ctr) {
    const __m128i ks = encrypt1(rk, counter_block(base, ctr));
    if (len - off >= 16) {
      store(data + off, _mm_xor_si128(load(data + off), ks));
    } else {
      std::uint8_t tail[16];
      store(tail, ks);
      for (std::size_t i = 0; i < len - off; ++i) data[off + i] ^= tail[i];
    }
  }
}

SC_TARGET_AES void ghash_init_x86(const std::uint8_t h[16], std::uint8_t powers[64]) {
  const __m128i h1 = reflect(load(h));
  const __m128i h2 = gf_mul(h1, h1);
  const __m128i h3 = gf_mul(h2, h1);
  store(powers, h1);
  store(powers + 16, h2);
  store(powers + 32, h3);
  store(powers + 48, gf_mul(h3, h1));
}

SC_TARGET_AES void ghash_x86(const std::uint8_t powers[64], std::uint8_t y[16],
                             const std::uint8_t* data, std::size_t len) {
  const __m128i h1 = load(powers);
  const __m128i h2 = load(powers + 16);
  const __m128i h3 = load(powers + 32);
  const __m128i h4 = load(powers + 48);
  __m128i acc = reflect(load(y));

  // Y' = (Y + X1)·H^4 + X2·H^3 + X3·H^2 + X4·H: one reduction per 4 blocks.
  std::size_t off = 0;
  for (; off + 64 <= len; off += 64) {
    Product p;
    clmul_add(p, _mm_xor_si128(acc, reflect(load(data + off))), h4);
    clmul_add(p, reflect(load(data + off + 16)), h3);
    clmul_add(p, reflect(load(data + off + 32)), h2);
    clmul_add(p, reflect(load(data + off + 48)), h1);
    acc = reduce(p);
  }
  for (; off < len; off += 16) {
    __m128i block;
    if (len - off >= 16) {
      block = load(data + off);
    } else {
      std::uint8_t padded[16] = {};
      std::memcpy(padded, data + off, len - off);
      block = load(padded);
    }
    acc = gf_mul(_mm_xor_si128(acc, reflect(block)), h1);
  }
  store(y, reflect(acc));
}

SC_TARGET_SHA void sha256_blocks_x86(std::uint32_t state[8], const std::uint8_t* data,
                                     std::size_t blocks) {
  // Byte-swap each 32-bit word: the message is big-endian.
  const __m128i bswap32 = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // SHA-NI keeps the state as {A,B,E,F} and {C,D,G,H} (high lane first).
  __m128i tmp = _mm_shuffle_epi32(load(state), 0xB1);       // CDAB
  __m128i cdgh = _mm_shuffle_epi32(load(state + 4), 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);              // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                   // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) w[i] = _mm_shuffle_epi8(load(data + 16 * i), bswap32);
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {  // four rounds per step
      if (g >= 4) {
        w[g & 3] = sha256_schedule(w[g & 3], w[(g + 1) & 3], w[(g + 2) & 3], w[(g + 3) & 3]);
      }
      const __m128i wk = _mm_add_epi32(w[g & 3], load(kSha256K.data() + 4 * g));
      // Two rounds each; the roles swap twice, so abef/cdgh end as named.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);                   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);                  // DCHG
  store(state, _mm_blend_epi16(tmp, cdgh, 0xF0));        // DCBA
  store(state + 4, _mm_alignr_epi8(cdgh, tmp, 8));       // ABEF
}

#undef SC_TARGET_AES
#undef SC_TARGET_SHA

#else  // !__x86_64__: no hardware kernels; has_*() is false, so none is called.

bool has_aes_clmul() { return false; }
bool has_sha_ni() { return false; }
void aes_encrypt_x86(const std::uint8_t*, int, const std::uint8_t*, std::uint8_t*) { std::abort(); }
void aes_ctr_xor_x86(const std::uint8_t*, int, const std::uint8_t*, std::uint8_t*, std::size_t) {
  std::abort();
}
void ghash_init_x86(const std::uint8_t*, std::uint8_t*) { std::abort(); }
void ghash_x86(const std::uint8_t*, std::uint8_t*, const std::uint8_t*, std::size_t) { std::abort(); }
void sha256_blocks_x86(std::uint32_t*, const std::uint8_t*, std::size_t) { std::abort(); }

#endif

}  // namespace securecloud::crypto::kernels
