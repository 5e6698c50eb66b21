// Reference Curve25519 code for differential tests.
//
// This is the public-domain TweetNaCl field, Montgomery ladder and
// Edwards point code (Bernstein et al.) that src/crypto used before the
// radix-2^51 field: 16 limbs of 16 bits in 64-bit signed accumulators,
// unified addition for doubling, a bit-by-bit ladder for every scalar
// multiplication. It is slow and simple on purpose: the tests compare
// crypto::x25519 and crypto::ed25519_* against it byte for byte and
// decision for decision. Nothing in src/ includes it.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "common/bytes.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sha512.hpp"
#include "crypto/x25519.hpp"

namespace securecloud::crypto::ref25519 {

using i64 = std::int64_t;
using Gf = std::array<i64, 16>;

inline constexpr Gf kGf0{};
inline constexpr Gf kGf1 = {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
inline constexpr Gf k121665 = {0xDB41, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};

inline void carry(Gf& o) {
  for (int i = 0; i < 16; ++i) {
    o[static_cast<std::size_t>(i)] += (i64{1} << 16);
    const i64 c = o[static_cast<std::size_t>(i)] >> 16;
    o[static_cast<std::size_t>((i + 1) * (i < 15 ? 1 : 0))] +=
        c - 1 + 37 * (c - 1) * (i == 15 ? 1 : 0);
    o[static_cast<std::size_t>(i)] -= c << 16;
  }
}

inline void cswap(Gf& p, Gf& q, int b) {
  const i64 c = ~static_cast<i64>(b - 1);
  for (std::size_t i = 0; i < 16; ++i) {
    const i64 t = c & (p[i] ^ q[i]);
    p[i] ^= t;
    q[i] ^= t;
  }
}

inline void pack(std::uint8_t o[32], const Gf& n) {
  Gf t = n;
  carry(t);
  carry(t);
  carry(t);
  Gf m{};
  for (int j = 0; j < 2; ++j) {
    m[0] = t[0] - 0xffed;
    for (std::size_t i = 1; i < 15; ++i) {
      m[i] = t[i] - 0xffff - ((m[i - 1] >> 16) & 1);
      m[i - 1] &= 0xffff;
    }
    m[15] = t[15] - 0x7fff - ((m[14] >> 16) & 1);
    const int b = static_cast<int>((m[15] >> 16) & 1);
    m[14] &= 0xffff;
    cswap(t, m, 1 - b);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    o[2 * i] = static_cast<std::uint8_t>(t[i] & 0xff);
    o[2 * i + 1] = static_cast<std::uint8_t>(t[i] >> 8);
  }
}

inline void unpack(Gf& o, const std::uint8_t n[32]) {
  for (std::size_t i = 0; i < 16; ++i) {
    o[i] = n[2 * i] + (static_cast<i64>(n[2 * i + 1]) << 8);
  }
  o[15] &= 0x7fff;
}

inline void add(Gf& o, const Gf& a, const Gf& b) {
  for (std::size_t i = 0; i < 16; ++i) o[i] = a[i] + b[i];
}

inline void sub(Gf& o, const Gf& a, const Gf& b) {
  for (std::size_t i = 0; i < 16; ++i) o[i] = a[i] - b[i];
}

inline void mul(Gf& o, const Gf& a, const Gf& b) {
  std::array<i64, 31> t{};
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) t[i + j] += a[i] * b[j];
  }
  for (std::size_t i = 0; i < 15; ++i) t[i] += 38 * t[i + 16];
  for (std::size_t i = 0; i < 16; ++i) o[i] = t[i];
  carry(o);
  carry(o);
}

inline void square(Gf& o, const Gf& a) { mul(o, a, a); }

inline void invert(Gf& o, const Gf& in) {
  Gf c = in;
  for (int a = 253; a >= 0; --a) {
    square(c, c);
    if (a != 2 && a != 4) mul(c, c, in);
  }
  o = c;
}

inline void pow2523(Gf& o, const Gf& in) {
  Gf c = in;
  for (int a = 250; a >= 0; --a) {
    square(c, c);
    if (a != 1) mul(c, c, in);
  }
  o = c;
}

inline std::uint8_t parity(const Gf& a) {
  std::uint8_t d[32];
  pack(d, a);
  return d[0] & 1;
}

inline bool neq(const Gf& a, const Gf& b) {
  std::uint8_t ap[32], bp[32];
  pack(ap, a);
  pack(bp, b);
  return std::memcmp(ap, bp, 32) != 0;
}

inline X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  std::uint8_t z[32];
  std::memcpy(z, scalar.data(), 32);
  z[31] = static_cast<std::uint8_t>((z[31] & 127) | 64);
  z[0] &= 248;

  Gf x;
  unpack(x, point.data());
  Gf a{}, b = x, c{}, d{};
  a[0] = 1;
  d[0] = 1;
  for (int i = 254; i >= 0; --i) {
    const int r = (z[i >> 3] >> (i & 7)) & 1;
    cswap(a, b, r);
    cswap(c, d, r);
    Gf e, ff;
    add(e, a, c);
    sub(a, a, c);
    add(c, b, d);
    sub(b, b, d);
    square(d, e);
    square(ff, a);
    mul(a, c, a);
    mul(c, b, e);
    add(e, a, c);
    sub(a, a, c);
    square(b, a);
    sub(c, d, ff);
    mul(a, c, k121665);
    add(a, a, d);
    mul(c, c, a);
    mul(a, d, ff);
    mul(d, b, x);
    square(b, e);
    cswap(a, b, r);
    cswap(c, d, r);
  }
  invert(c, c);
  mul(a, a, c);
  X25519Key out;
  pack(out.data(), a);
  return out;
}

namespace detail {

inline constexpr Gf kD = {0x78a3, 0x1359, 0x4dca, 0x75eb, 0xd8ab, 0x4141, 0x0a4d, 0x0070,
                          0xe898, 0x7779, 0x4079, 0x8cc7, 0xfe73, 0x2b6f, 0x6cee, 0x5203};
inline constexpr Gf kD2 = {0xf159, 0x26b2, 0x9b94, 0xebd6, 0xb156, 0x8283, 0x149a, 0x00e0,
                           0xd130, 0xeef3, 0x80f2, 0x198e, 0xfce7, 0x56df, 0xd9dc, 0x2406};
inline constexpr Gf kX = {0xd51a, 0x8f25, 0x2d60, 0xc956, 0xa7b2, 0x9525, 0xc760, 0x692c,
                          0xdc5c, 0xfdd6, 0xe231, 0xc0a4, 0x53fe, 0xcd6e, 0x36d3, 0x2169};
inline constexpr Gf kY = {0x6658, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666,
                          0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666};
inline constexpr Gf kI = {0xa0b0, 0x4a0e, 0x1b27, 0xc4ee, 0xe478, 0xad2f, 0x1806, 0x2f43,
                          0xd7a7, 0x3dfb, 0x0099, 0x2b4d, 0xdf0b, 0x4fc1, 0x2480, 0x2b83};
inline constexpr std::uint64_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                         0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                         0,    0,    0,    0,    0,    0,    0,    0,
                                         0,    0,    0,    0,    0,    0,    0,    0x10};

using Point = std::array<Gf, 4>;

inline void point_add(Point& p, const Point& q) {
  Gf a, b, c, d, t, e, ff, g, h;
  sub(a, p[1], p[0]);
  sub(t, q[1], q[0]);
  mul(a, a, t);
  add(b, p[0], p[1]);
  add(t, q[0], q[1]);
  mul(b, b, t);
  mul(c, p[3], q[3]);
  mul(c, c, kD2);
  mul(d, p[2], q[2]);
  add(d, d, d);
  sub(e, b, a);
  sub(ff, d, c);
  add(g, d, c);
  add(h, b, a);
  mul(p[0], e, ff);
  mul(p[1], h, g);
  mul(p[2], g, ff);
  mul(p[3], e, h);
}

inline void point_cswap(Point& p, Point& q, int b) {
  for (std::size_t i = 0; i < 4; ++i) cswap(p[i], q[i], b);
}

inline void point_pack(std::uint8_t r[32], const Point& p) {
  Gf tx, ty, zi;
  invert(zi, p[2]);
  mul(tx, p[0], zi);
  mul(ty, p[1], zi);
  pack(r, ty);
  r[31] ^= static_cast<std::uint8_t>(parity(tx) << 7);
}

inline void point_scalarmult(Point& p, Point& q, const std::uint8_t* s) {
  p[0] = kGf0;
  p[1] = kGf1;
  p[2] = kGf1;
  p[3] = kGf0;
  for (int i = 255; i >= 0; --i) {
    const int b = (s[i / 8] >> (i & 7)) & 1;
    point_cswap(p, q, b);
    point_add(q, p);
    point_add(p, p);
    point_cswap(p, q, b);
  }
}

inline void point_scalarbase(Point& p, const std::uint8_t* s) {
  Point q;
  q[0] = kX;
  q[1] = kY;
  q[2] = kGf1;
  mul(q[3], kX, kY);
  point_scalarmult(p, q, s);
}

inline void mod_l(std::uint8_t r[32], i64 x[64]) {
  i64 carry;
  for (i64 i = 63; i >= 32; --i) {
    carry = 0;
    i64 j;
    for (j = i - 32; j < i - 12; ++j) {
      x[j] += carry - 16 * x[i] * static_cast<i64>(kL[j - (i - 32)]);
      carry = (x[j] + 128) >> 8;
      x[j] -= carry << 8;
    }
    x[j] += carry;
    x[i] = 0;
  }
  carry = 0;
  for (i64 j = 0; j < 32; ++j) {
    x[j] += carry - (x[31] >> 4) * static_cast<i64>(kL[j]);
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (i64 j = 0; j < 32; ++j) x[j] -= carry * static_cast<i64>(kL[j]);
  for (i64 i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    r[i] = static_cast<std::uint8_t>(x[i] & 255);
  }
}

inline void reduce(std::uint8_t r[64]) {
  i64 x[64];
  for (int i = 0; i < 64; ++i) x[i] = static_cast<i64>(r[i]);
  for (int i = 0; i < 64; ++i) r[i] = 0;
  mod_l(r, x);
}

inline bool point_unpack_neg(Point& r, const std::uint8_t p[32]) {
  Gf t, chk, num, den, den2, den4, den6;
  r[2] = kGf1;
  unpack(r[1], p);
  square(num, r[1]);
  mul(den, num, kD);
  sub(num, num, r[2]);
  add(den, r[2], den);
  square(den2, den);
  square(den4, den2);
  mul(den6, den4, den2);
  mul(t, den6, num);
  mul(t, t, den);
  pow2523(t, t);
  mul(t, t, num);
  mul(t, t, den);
  mul(t, t, den);
  mul(r[0], t, den);
  square(chk, r[0]);
  mul(chk, chk, den);
  if (neq(chk, num)) mul(r[0], r[0], kI);
  square(chk, r[0]);
  mul(chk, chk, den);
  if (neq(chk, num)) return false;
  if (parity(r[0]) == (p[31] >> 7)) sub(r[0], kGf0, r[0]);
  mul(r[3], r[0], r[1]);
  return true;
}

inline Sha512Digest clamped_hash(const Ed25519Seed& seed) {
  Sha512Digest d = Sha512::hash(seed);
  d[0] &= 248;
  d[31] &= 127;
  d[31] |= 64;
  return d;
}

}  // namespace detail

inline Ed25519KeyPair ed25519_keypair(const Ed25519Seed& seed) {
  const Sha512Digest d = detail::clamped_hash(seed);
  detail::Point p;
  detail::point_scalarbase(p, d.data());
  Ed25519KeyPair kp;
  kp.seed = seed;
  detail::point_pack(kp.public_key.data(), p);
  return kp;
}

inline Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, ByteView message) {
  const Sha512Digest d = detail::clamped_hash(kp.seed);
  Sha512 rh;
  rh.update(ByteView(d.data() + 32, 32));
  rh.update(message);
  Sha512Digest r = rh.finish();
  detail::reduce(r.data());

  detail::Point p;
  detail::point_scalarbase(p, r.data());
  Ed25519Signature sig{};
  detail::point_pack(sig.data(), p);

  Sha512 kh;
  kh.update(ByteView(sig.data(), 32));
  kh.update(kp.public_key);
  kh.update(message);
  Sha512Digest k = kh.finish();
  detail::reduce(k.data());

  i64 x[64] = {};
  for (std::size_t i = 0; i < 32; ++i) x[i] = static_cast<i64>(r[i]);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      x[i + j] += static_cast<i64>(k[i]) * static_cast<i64>(d[j]);
    }
  }
  detail::mod_l(sig.data() + 32, x);
  return sig;
}

inline bool ed25519_verify(const Ed25519PublicKey& pk, ByteView message,
                           const Ed25519Signature& sig) {
  detail::Point q;
  if (!detail::point_unpack_neg(q, pk.data())) return false;
  Sha512 kh;
  kh.update(ByteView(sig.data(), 32));
  kh.update(pk);
  kh.update(message);
  Sha512Digest k = kh.finish();
  detail::reduce(k.data());

  detail::Point p;
  detail::point_scalarmult(p, q, k.data());
  detail::Point b;
  detail::point_scalarbase(b, sig.data() + 32);
  detail::point_add(p, b);

  std::uint8_t t[32];
  detail::point_pack(t, p);
  return std::memcmp(sig.data(), t, 32) == 0;
}

}  // namespace securecloud::crypto::ref25519
