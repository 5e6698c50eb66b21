#include "crypto/ed25519.hpp"

#include "crypto/field25519.hpp"
#include "crypto/sha512.hpp"

namespace securecloud::crypto {

namespace {

namespace f = f25519;
using f::Gf;
using i64 = std::int64_t;

// Edwards curve constants in radix 2^51: d, 2d, basepoint (X, Y), sqrt(-1).
constexpr Gf kD = {0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029,
                   0x739c663a03cbb, 0x52036cee2b6ff};
constexpr Gf kD2 = {0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052,
                    0x6738cc7407977, 0x2406d9dc56dff};
constexpr Gf kX = {0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d,
                   0x1ff60527118fe, 0x216936d3cd6e5};
constexpr Gf kY = {0x6666666666658, 0x4cccccccccccc, 0x1999999999999,
                   0x3333333333333, 0x6666666666666};
constexpr Gf kI = {0x61b274a0ea0b0, 0x0d5a5fc8f189d, 0x7ef5e9cbd0c60,
                   0x78595a6804c9e, 0x2b8324804fc1d};

// Group order L = 2^252 + 27742317777372353535851937790883648493.
constexpr std::uint64_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                  0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                  0,    0,    0,    0,    0,    0,    0,    0,
                                  0,    0,    0,    0,    0,    0,    0,    0x10};

using Point = std::array<Gf, 4>;  // extended coordinates (X, Y, Z, T)

constexpr Point kIdentity = {f::kGf0, f::kGf1, f::kGf1, f::kGf0};

/// Unified Edwards point addition: p += q (complete on the curve).
void point_add(Point& p, const Point& q) {
  Gf a, b, c, d, t, e, ff, g, h;
  f::sub(a, p[1], p[0]);
  f::sub(t, q[1], q[0]);
  f::mul(a, a, t);
  f::add(b, p[0], p[1]);
  f::add(t, q[0], q[1]);
  f::mul(b, b, t);
  f::mul(c, p[3], q[3]);
  f::mul(c, c, kD2);
  f::mul(d, p[2], q[2]);
  f::add(d, d, d);
  f::sub(e, b, a);
  f::sub(ff, d, c);
  f::add(g, d, c);
  f::add(h, b, a);
  f::mul(p[0], e, ff);
  f::mul(p[1], h, g);
  f::mul(p[2], g, ff);
  f::mul(p[3], e, h);
}

/// Dedicated doubling for a = -1 (dbl-2008-hwcd, 4S + 4M): p = 2p. It
/// reads only X, Y, Z and yields the same projective point as
/// point_add(p, p); both are complete on the curve.
void point_double(Point& p) {
  Gf xx, yy, zz2, s, e, g, ff, h;
  f::square(xx, p[0]);
  f::square(yy, p[1]);
  f::square(zz2, p[2]);
  f::add(zz2, zz2, zz2);  // 2Z^2
  f::add(s, p[0], p[1]);
  f::square(s, s);        // (X + Y)^2
  f::add(h, yy, xx);      // -H  = Y^2 + X^2
  f::sub(g, yy, xx);      //  G  = Y^2 - X^2
  f::sub(e, s, h);        //  E  = 2XY
  f::sub(ff, zz2, g);     // -F  = 2Z^2 - G
  // Each product has exactly one negated factor, so all four coordinates
  // come out negated: (-X : -Y : -Z : -T) is the same point.
  f::mul(p[0], e, ff);
  f::mul(p[1], h, g);
  f::mul(p[2], g, ff);
  f::mul(p[3], e, h);
}

void point_cswap(Point& p, Point& q, int b) {
  for (std::size_t i = 0; i < 4; ++i) f::cswap(p[i], q[i], b);
}

void point_pack(std::uint8_t r[32], const Point& p) {
  Gf tx, ty, zi;
  f::invert(zi, p[2]);
  f::mul(tx, p[0], zi);
  f::mul(ty, p[1], zi);
  f::pack(r, ty);
  r[31] ^= static_cast<std::uint8_t>(f::parity(tx) << 7);
}

/// Constant-time scalar multiplication p = s * q (s: 32-byte scalar).
void point_scalarmult(Point& p, Point& q, const std::uint8_t* s) {
  p = kIdentity;
  for (int i = 255; i >= 0; --i) {
    const int b = (s[i / 8] >> (i & 7)) & 1;
    point_cswap(p, q, b);
    point_add(q, p);
    point_double(p);
    point_cswap(p, q, b);
  }
}

/// An affine point as (y + x, y - x, 2dxy): the operand of point_madd.
struct Precomp {
  Gf ypx, ymx, xy2d;
};

/// Mixed addition p += q for an affine q (7M).
void point_madd(Point& p, const Precomp& q) {
  Gf a, b, c, d, e, ff, g, h;
  f::sub(a, p[1], p[0]);
  f::mul(a, a, q.ymx);
  f::add(b, p[1], p[0]);
  f::mul(b, b, q.ypx);
  f::mul(c, p[3], q.xy2d);
  f::add(d, p[2], p[2]);
  f::sub(e, b, a);
  f::sub(ff, d, c);
  f::add(g, d, c);
  f::add(h, b, a);
  f::mul(p[0], e, ff);
  f::mul(p[1], h, g);
  f::mul(p[2], g, ff);
  f::mul(p[3], e, h);
}

Precomp to_precomp(const Point& p) {
  Gf zi, x, y;
  f::invert(zi, p[2]);
  f::mul(x, p[0], zi);
  f::mul(y, p[1], zi);
  Precomp r;
  f::add(r.ypx, y, x);
  f::sub(r.ymx, y, x);
  f::mul(r.xy2d, x, y);
  f::mul(r.xy2d, r.xy2d, kD2);
  return r;
}

/// kBase[i][j] = (j + 1) * 256^i * B: 32 rows of the odd and even radix-16
/// digit positions 2i and 2i + 1 (the latter scaled by 16 at the end).
using BaseTable = std::array<std::array<Precomp, 8>, 32>;

const BaseTable& base_table() {
  static const BaseTable table = [] {
    BaseTable t;
    Point row = {kX, kY, f::kGf1, f::kGf0};
    f::mul(row[3], kX, kY);
    for (std::size_t i = 0; i < 32; ++i) {
      Point multiple = row;
      for (std::size_t j = 0; j < 8; ++j) {
        t[i][j] = to_precomp(multiple);
        point_add(multiple, row);
      }
      for (int k = 0; k < 8; ++k) point_double(row);  // row *= 256
    }
    return t;
  }();
  return table;
}

/// 1 when a == b, else 0, without a branch.
int ct_equal(std::uint32_t a, std::uint32_t b) {
  return static_cast<int>(((a ^ b) - 1) >> 31);
}

/// r = digit * 256^row * B for digit in [-8, 8]. Scans all eight entries
/// of the row and negates by masks: no branch or index on the digit.
void table_select(Precomp& r, std::size_t row, std::int8_t digit) {
  const auto bits = static_cast<std::uint8_t>(digit);
  const int negative = bits >> 7;
  const auto magnitude = static_cast<std::uint32_t>(
      digit - ((-negative & digit) * 2));  // |digit|
  r = {f::kGf1, f::kGf1, f::kGf0};  // the identity: digit 0
  const auto& entries = base_table()[row];
  for (std::size_t j = 0; j < 8; ++j) {
    const int hit = ct_equal(magnitude, static_cast<std::uint32_t>(j + 1));
    f::cmov(r.ypx, entries[j].ypx, hit);
    f::cmov(r.ymx, entries[j].ymx, hit);
    f::cmov(r.xy2d, entries[j].xy2d, hit);
  }
  // -(x, y) = (-x, y): swap y+x with y-x and negate 2dxy.
  f::cswap(r.ypx, r.ymx, negative);
  Gf minus;
  f::sub(minus, f::kGf0, r.xy2d);
  f::cmov(r.xy2d, minus, negative);
}

/// Constant-time fixed-base multiplication p = s * B for a 32-byte
/// scalar s < 2^255, from signed radix-16 digits and the base table.
void point_scalarbase(Point& p, const std::uint8_t* s) {
  std::int8_t e[64];
  for (std::size_t i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(s[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(s[i] >> 4);
  }
  // Recentre each digit into [-8, 8): e[63] absorbs the last carry.
  std::int8_t carry = 0;
  for (std::size_t i = 0; i < 63; ++i) {
    e[i] = static_cast<std::int8_t>(e[i] + carry);
    carry = static_cast<std::int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<std::int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  Precomp t;
  p = kIdentity;
  for (std::size_t i = 1; i < 64; i += 2) {
    table_select(t, i / 2, e[i]);
    point_madd(p, t);
  }
  for (int k = 0; k < 4; ++k) point_double(p);
  for (std::size_t i = 0; i < 64; i += 2) {
    table_select(t, i / 2, e[i]);
    point_madd(p, t);
  }
}

/// Reduces a 512-bit little-endian integer mod L into r[0..31].
void mod_l(std::uint8_t r[32], i64 x[64]) {
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

/// Reduces a 64-byte value (e.g. a SHA-512 digest) mod L in place.
void reduce(std::uint8_t r[64]) {
  i64 x[64];
  for (int i = 0; i < 64; ++i) x[i] = static_cast<i64>(r[i]);
  for (int i = 0; i < 64; ++i) r[i] = 0;
  mod_l(r, x);
}

/// Decompresses a public key into -A (negated, as verification needs).
/// Returns false for points not on the curve.
bool point_unpack_neg(Point& r, const std::uint8_t p[32]) {
  Gf t, chk, num, den, den2, den4, den6;
  r[2] = f::kGf1;
  f::unpack(r[1], p);
  f::square(num, r[1]);
  f::mul(den, num, kD);
  f::sub(num, num, r[2]);
  f::add(den, r[2], den);

  f::square(den2, den);
  f::square(den4, den2);
  f::mul(den6, den4, den2);
  f::mul(t, den6, num);
  f::mul(t, t, den);

  f::pow2523(t, t);
  f::mul(t, t, num);
  f::mul(t, t, den);
  f::mul(t, t, den);
  f::mul(r[0], t, den);

  f::square(chk, r[0]);
  f::mul(chk, chk, den);
  if (f::neq(chk, num)) f::mul(r[0], r[0], kI);

  f::square(chk, r[0]);
  f::mul(chk, chk, den);
  if (f::neq(chk, num)) return false;

  if (f::parity(r[0]) == (p[31] >> 7)) f::sub(r[0], f::kGf0, r[0]);

  f::mul(r[3], r[0], r[1]);
  return true;
}

Sha512Digest hash3(ByteView a, ByteView b, ByteView c) {
  Sha512 h;
  h.update(a);
  h.update(b);
  h.update(c);
  return h.finish();
}

}  // namespace

Ed25519KeyPair ed25519_keypair(const Ed25519Seed& seed) {
  Sha512Digest d = Sha512::hash(seed);
  d[0] &= 248;
  d[31] &= 127;
  d[31] |= 64;

  Point p;
  point_scalarbase(p, d.data());

  Ed25519KeyPair kp;
  kp.seed = seed;
  point_pack(kp.public_key.data(), p);
  return kp;
}

Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, ByteView message) {
  Sha512Digest d = Sha512::hash(kp.seed);
  d[0] &= 248;
  d[31] &= 127;
  d[31] |= 64;

  // r = SHA512(prefix || M) mod L
  Sha512Digest r_digest;
  {
    Sha512 h;
    h.update(ByteView(d.data() + 32, 32));
    h.update(message);
    r_digest = h.finish();
  }
  reduce(r_digest.data());

  Point p;
  point_scalarbase(p, r_digest.data());
  Ed25519Signature sig{};
  point_pack(sig.data(), p);

  // k = SHA512(R || A || M) mod L
  Sha512Digest k = hash3(ByteView(sig.data(), 32), kp.public_key, message);
  reduce(k.data());

  // S = (r + k * s) mod L
  i64 x[64] = {};
  for (int i = 0; i < 32; ++i) x[i] = static_cast<i64>(r_digest[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      x[i + j] += static_cast<i64>(k[static_cast<std::size_t>(i)]) *
                  static_cast<i64>(d[static_cast<std::size_t>(j)]);
    }
  }
  mod_l(sig.data() + 32, x);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& pk, ByteView message,
                    const Ed25519Signature& sig) {
  Point q;
  if (!point_unpack_neg(q, pk.data())) return false;

  Sha512Digest k = hash3(ByteView(sig.data(), 32), pk, message);
  reduce(k.data());

  Point p;
  point_scalarmult(p, q, k.data());

  // [S]B = [S mod L]B because B has order L, so S >= L (even S >= 2^255)
  // is accepted exactly as a bit-by-bit ladder over all 256 bits would.
  std::uint8_t s[64] = {};
  std::memcpy(s, sig.data() + 32, 32);
  reduce(s);
  Point b;
  point_scalarbase(b, s);
  point_add(p, b);

  std::uint8_t t[32];
  point_pack(t, p);
  return std::memcmp(sig.data(), t, 32) == 0;
}

}  // namespace securecloud::crypto
