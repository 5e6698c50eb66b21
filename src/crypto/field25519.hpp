// GF(2^255 - 19) field arithmetic shared by X25519 and Ed25519.
//
// Internal header (not part of the public API). Representation: 5 limbs
// of 51 bits in 64-bit words, products in unsigned __int128, so a
// multiplication is 25 word products. Bounds per limb:
//  - mul/square/sub/carry/mul_small outputs are "reduced": < 2^51 + 2^13;
//  - add does not carry, so the sum of two reduced elements is < 2^53;
//  - mul/square accept limbs < 2^54; sub accepts a minuend < 2^54 and a
//    subtrahend no larger than the sum of two reduced elements.
// No operation branches or indexes on field values; cswap is a masked
// exchange.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

namespace securecloud::crypto::f25519 {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using Gf = std::array<u64, 5>;

inline constexpr u64 kMask51 = (u64{1} << 51) - 1;

inline constexpr Gf kGf0{};
inline constexpr Gf kGf1 = {1, 0, 0, 0, 0};

/// Weak reduction: carries every limb into the next, the top limb into
/// limb 0 times 19 (2^255 = 19 mod p). Leaves the value unchanged mod p.
inline void carry(Gf& o) {
  u64 c = o[0] >> 51;
  o[0] &= kMask51;
  for (std::size_t i = 1; i < 5; ++i) {
    o[i] += c;
    c = o[i] >> 51;
    o[i] &= kMask51;
  }
  o[0] += 19 * c;
}

/// Constant-time conditional swap when b == 1.
inline void cswap(Gf& p, Gf& q, int b) {
  const u64 c = u64{0} - static_cast<u64>(b);
  for (std::size_t i = 0; i < 5; ++i) {
    const u64 t = c & (p[i] ^ q[i]);
    p[i] ^= t;
    q[i] ^= t;
  }
}

/// Constant-time conditional move o = a when b == 1.
inline void cmov(Gf& o, const Gf& a, int b) {
  const u64 c = u64{0} - static_cast<u64>(b);
  for (std::size_t i = 0; i < 5; ++i) o[i] ^= c & (o[i] ^ a[i]);
}

/// Canonical little-endian encoding: the unique value in [0, p).
inline void pack(std::uint8_t o[32], const Gf& n) {
  Gf t = n;
  carry(t);
  carry(t);  // now every limb < 2^51: value < 2^255 < 2p
  // q = 1 iff t >= p, i.e. iff t + 19 overflows 2^255.
  u64 q = (t[0] + 19) >> 51;
  for (std::size_t i = 1; i < 5; ++i) q = (t[i] + q) >> 51;
  t[0] += 19 * q;
  u64 c = t[0] >> 51;
  t[0] &= kMask51;
  for (std::size_t i = 1; i < 5; ++i) {
    t[i] += c;
    c = t[i] >> 51;
    t[i] &= kMask51;
  }
  // The carry out of limb 4 is 2^255 exactly when q == 1: dropped.
  const u64 w[4] = {t[0] | (t[1] << 51), (t[1] >> 13) | (t[2] << 38),
                    (t[2] >> 26) | (t[3] << 25), (t[3] >> 39) | (t[4] << 12)};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      o[8 * i + j] = static_cast<std::uint8_t>(w[i] >> (8 * j));
    }
  }
}

/// Loads 32 little-endian bytes, ignoring bit 255. Values in [p, 2^255)
/// are accepted as they are, as RFC 7748 requires of X25519 inputs.
inline void unpack(Gf& o, const std::uint8_t n[32]) {
  u64 w[4];
  for (std::size_t i = 0; i < 4; ++i) {
    w[i] = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      w[i] |= static_cast<u64>(n[8 * i + j]) << (8 * j);
    }
  }
  o[0] = w[0] & kMask51;
  o[1] = ((w[0] >> 51) | (w[1] << 13)) & kMask51;
  o[2] = ((w[1] >> 38) | (w[2] << 26)) & kMask51;
  o[3] = ((w[2] >> 25) | (w[3] << 39)) & kMask51;
  o[4] = (w[3] >> 12) & kMask51;
}

inline void add(Gf& o, const Gf& a, const Gf& b) {
  for (std::size_t i = 0; i < 5; ++i) o[i] = a[i] + b[i];
}

/// o = a - b, computed as a + 4p - b so no limb goes negative.
inline void sub(Gf& o, const Gf& a, const Gf& b) {
  constexpr u64 k4p0 = 4 * ((u64{1} << 51) - 19);
  constexpr u64 k4pi = 4 * kMask51;
  o[0] = a[0] + k4p0 - b[0];
  for (std::size_t i = 1; i < 5; ++i) o[i] = a[i] + k4pi - b[i];
  carry(o);
}

/// Folds five 128-bit columns into a reduced element.
inline void reduce_columns(Gf& o, u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  t1 += static_cast<u64>(t0 >> 51);
  t2 += static_cast<u64>(t1 >> 51);
  t3 += static_cast<u64>(t2 >> 51);
  t4 += static_cast<u64>(t3 >> 51);
  u64 r0 = (static_cast<u64>(t0) & kMask51) + 19 * static_cast<u64>(t4 >> 51);
  u64 r1 = static_cast<u64>(t1) & kMask51;
  r1 += r0 >> 51;
  o[0] = r0 & kMask51;
  o[1] = r1;
  o[2] = static_cast<u64>(t2) & kMask51;
  o[3] = static_cast<u64>(t3) & kMask51;
  o[4] = static_cast<u64>(t4) & kMask51;
}

inline void mul(Gf& o, const Gf& a, const Gf& b) {
  const u64 b1_19 = 19 * b[1], b2_19 = 19 * b[2], b3_19 = 19 * b[3],
            b4_19 = 19 * b[4];
  auto m = [](u64 x, u64 y) { return static_cast<u128>(x) * y; };
  const u128 t0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) +
                  m(a[3], b2_19) + m(a[4], b1_19);
  const u128 t1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) +
                  m(a[3], b3_19) + m(a[4], b2_19);
  const u128 t2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) +
                  m(a[3], b4_19) + m(a[4], b3_19);
  const u128 t3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) +
                  m(a[3], b[0]) + m(a[4], b4_19);
  const u128 t4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) +
                  m(a[3], b[1]) + m(a[4], b[0]);
  reduce_columns(o, t0, t1, t2, t3, t4);
}

/// o = a^2: 15 word products instead of mul's 25.
inline void square(Gf& o, const Gf& a) {
  const u64 a0_2 = 2 * a[0], a1_2 = 2 * a[1];
  const u64 a1_38 = 38 * a[1], a2_38 = 38 * a[2], a3_38 = 38 * a[3];
  const u64 a3_19 = 19 * a[3], a4_19 = 19 * a[4];
  auto m = [](u64 x, u64 y) { return static_cast<u128>(x) * y; };
  const u128 t0 = m(a[0], a[0]) + m(a1_38, a[4]) + m(a2_38, a[3]);
  const u128 t1 = m(a0_2, a[1]) + m(a2_38, a[4]) + m(a3_19, a[3]);
  const u128 t2 = m(a0_2, a[2]) + m(a[1], a[1]) + m(a3_38, a[4]);
  const u128 t3 = m(a0_2, a[3]) + m(a1_2, a[2]) + m(a4_19, a[4]);
  const u128 t4 = m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]);
  reduce_columns(o, t0, t1, t2, t3, t4);
}

/// o = a^(2^n), n >= 1.
inline void square_n(Gf& o, const Gf& a, int n) {
  square(o, a);
  for (int i = 1; i < n; ++i) square(o, o);
}

/// o = a * k for a small constant k < 2^20.
inline void mul_small(Gf& o, const Gf& a, u64 k) {
  reduce_columns(o, static_cast<u128>(a[0]) * k, static_cast<u128>(a[1]) * k,
                 static_cast<u128>(a[2]) * k, static_cast<u128>(a[3]) * k,
                 static_cast<u128>(a[4]) * k);
}

/// o = a^(2^250 - 1) and a11 = a^11, the shared prefix of invert and
/// pow2523's addition chains.
inline void pow2_250_1(Gf& o, Gf& a11, const Gf& a) {
  Gf t0, t1, t2;
  square(t0, a);            // a^2
  square_n(t1, t0, 2);      // a^8
  mul(t1, a, t1);           // a^9
  mul(a11, t0, t1);         // a^11
  square(t0, a11);          // a^22
  mul(t0, t1, t0);          // a^(2^5 - 1)
  square_n(t1, t0, 5);
  mul(t0, t1, t0);          // a^(2^10 - 1)
  square_n(t1, t0, 10);
  mul(t1, t1, t0);          // a^(2^20 - 1)
  square_n(t2, t1, 20);
  mul(t1, t2, t1);          // a^(2^40 - 1)
  square_n(t1, t1, 10);
  mul(t0, t1, t0);          // a^(2^50 - 1)
  square_n(t1, t0, 50);
  mul(t1, t1, t0);          // a^(2^100 - 1)
  square_n(t2, t1, 100);
  mul(t1, t2, t1);          // a^(2^200 - 1)
  square_n(t1, t1, 50);
  mul(o, t1, t0);           // a^(2^250 - 1)
}

/// Fermat inversion: a^(p-2) = a^(2^255 - 21); 0 maps to 0.
inline void invert(Gf& o, const Gf& in) {
  Gf t, a11;
  pow2_250_1(t, a11, in);
  square_n(t, t, 5);  // a^(2^255 - 32)
  mul(o, t, a11);
}

/// a^((p-5)/8) = a^(2^252 - 3), used for square roots in Ed25519 point
/// decompression.
inline void pow2523(Gf& o, const Gf& in) {
  Gf t, a11;
  pow2_250_1(t, a11, in);
  square_n(t, t, 2);  // a^(2^252 - 4)
  mul(o, t, in);
}

/// Low bit of the canonical encoding (sign of the x-coordinate).
inline std::uint8_t parity(const Gf& a) {
  std::uint8_t d[32];
  pack(d, a);
  return d[0] & 1;
}

/// Non-constant-time inequality of canonical encodings (used on public
/// values only: point decompression of a received public key).
inline bool neq(const Gf& a, const Gf& b) {
  std::uint8_t ap[32], bp[32];
  pack(ap, a);
  pack(bp, b);
  return std::memcmp(ap, bp, 32) != 0;
}

}  // namespace securecloud::crypto::f25519
