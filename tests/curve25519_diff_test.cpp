// Differential tests: crypto::x25519 and crypto::ed25519_* against the
// TweetNaCl reference in curve25519_ref.hpp. Every output byte and every
// accept/reject decision must match, on random inputs and on the edge
// cases a faster field or a table-driven scalar multiplication gets wrong:
// non-canonical and high-bit encodings, low-order points, S >= L, S with
// bit 255 set, keys off the curve.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/x25519.hpp"
#include "curve25519_ref.hpp"

namespace securecloud::crypto {
namespace {

using Key32 = std::array<std::uint8_t, 32>;

Key32 random32(Rng& rng) {
  Key32 out;
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

Key32 from_hex(std::string_view h) {
  const Bytes b = hex_decode(h);
  Key32 out{};
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// p = 2^255 - 19, little-endian.
const Key32 kP = from_hex(
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");

// Group order L, little-endian.
const Key32 kL = from_hex(
    "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");

/// x += k, 256-bit little-endian; returns false on overflow past 2^256.
bool add_to(Key32& x, const Key32& k) {
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const unsigned sum = x[i] + k[i] + carry;
    x[i] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  return carry == 0;
}

Key32 plus_small(Key32 x, std::uint8_t k) {
  Key32 small{};
  small[0] = k;
  (void)add_to(x, small);
  return x;
}

// Montgomery u-coordinates of order 1, 2, 4 and 8 points and their
// non-canonical aliases (value + p below 2^255).
const std::vector<Key32>& low_order_u() {
  static const std::vector<Key32> values = [] {
    std::vector<Key32> v;
    for (const char* h : {
             "0000000000000000000000000000000000000000000000000000000000000000",
             "0100000000000000000000000000000000000000000000000000000000000000",
             "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
             "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
             "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
             "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
             "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
         }) {
      v.push_back(from_hex(h));
    }
    return v;
  }();
  return values;
}

// Ed25519 encodings of the eight small-order points (both signs of x).
const std::vector<Key32>& small_order_a() {
  static const std::vector<Key32> values = [] {
    std::vector<Key32> v;
    for (const char* h : {
             "0100000000000000000000000000000000000000000000000000000000000000",
             "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
             "0000000000000000000000000000000000000000000000000000000000000000",
             "0000000000000000000000000000000000000000000000000000000000000080",
             "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
             "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
             "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
             "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
         }) {
      v.push_back(from_hex(h));
    }
    return v;
  }();
  return values;
}

void expect_x25519_equal(const Key32& scalar, const Key32& u) {
  EXPECT_EQ(x25519(scalar, u), ref25519::x25519(scalar, u))
      << "scalar " << hex_encode(scalar) << " u " << hex_encode(u);
}

/// Verify decision of both implementations; expects them equal and
/// returns it.
bool verify_both(const Ed25519PublicKey& pk, ByteView msg,
                 const Ed25519Signature& sig) {
  const bool got = ed25519_verify(pk, msg, sig);
  EXPECT_EQ(got, ref25519::ed25519_verify(pk, msg, sig))
      << "pk " << hex_encode(pk) << " sig " << hex_encode(sig);
  return got;
}

Ed25519Signature with_s(Ed25519Signature sig, const Key32& s) {
  std::copy(s.begin(), s.end(), sig.begin() + 32);
  return sig;
}

Key32 s_of(const Ed25519Signature& sig) {
  Key32 s;
  std::copy(sig.begin() + 32, sig.end(), s.begin());
  return s;
}

// ---------------------------------------------------------------- X25519

TEST(Curve25519Diff, X25519RandomScalarsAndPoints) {
  Rng rng(0x25519);
  for (int i = 0; i < 64; ++i) expect_x25519_equal(random32(rng), random32(rng));
  for (int i = 0; i < 16; ++i) {
    const Key32 scalar = random32(rng);
    EXPECT_EQ(x25519_base(scalar), ref25519::x25519(scalar, from_hex(
        "0900000000000000000000000000000000000000000000000000000000000000")));
  }
}

TEST(Curve25519Diff, X25519NonCanonicalAndHighBitU) {
  Rng rng(7748);
  for (int i = 0; i < 8; ++i) {
    const Key32 scalar = random32(rng);
    // u in [p, 2^255): p + k for k = 0..18.
    for (std::uint8_t k = 0; k < 19; k += 3) expect_x25519_equal(scalar, plus_small(kP, k));
    // Bit 255 set on an otherwise random u, and on a non-canonical one.
    Key32 u = random32(rng);
    u[31] |= 0x80;
    expect_x25519_equal(scalar, u);
    Key32 high = plus_small(kP, 5);
    high[31] |= 0x80;
    expect_x25519_equal(scalar, high);
  }
}

TEST(Curve25519Diff, X25519LowOrderPoints) {
  Rng rng(8);
  int zero_outputs = 0;
  for (int i = 0; i < 4; ++i) {
    const Key32 scalar = random32(rng);
    for (Key32 u : low_order_u()) {
      expect_x25519_equal(scalar, u);
      zero_outputs += x25519(scalar, u) == Key32{} ? 1 : 0;
      u[31] |= 0x80;
      expect_x25519_equal(scalar, u);
    }
  }
  // The clamped scalar is a multiple of 8: every low-order input maps to 0.
  EXPECT_EQ(zero_outputs, 4 * static_cast<int>(low_order_u().size()));
}

// --------------------------------------------------------------- Ed25519

TEST(Curve25519Diff, Ed25519KeypairAndSignOverMessageLengths) {
  Rng rng(8032);
  for (std::size_t len = 0; len <= 300; ++len) {
    const Ed25519Seed seed = random32(rng);
    const Ed25519KeyPair kp = ed25519_keypair(seed);
    const Ed25519KeyPair ref_kp = ref25519::ed25519_keypair(seed);
    ASSERT_EQ(kp.public_key, ref_kp.public_key) << "seed " << hex_encode(seed);
    const Bytes msg = random_bytes(rng, len);
    const Ed25519Signature sig = ed25519_sign(kp, msg);
    ASSERT_EQ(sig, ref25519::ed25519_sign(ref_kp, msg)) << "len " << len;
    if (len % 10 == 0) {
      EXPECT_TRUE(verify_both(kp.public_key, msg, sig));
    }
  }
}

TEST(Curve25519Diff, Ed25519VerifyAgreesOnMalleatedSignatures) {
  Rng rng(0xed);
  int accepted_high_s = 0;
  for (int round = 0; round < 4; ++round) {
    const Ed25519KeyPair kp = ed25519_keypair(random32(rng));
    const Bytes msg = random_bytes(rng, 1 + rng.next() % 80);
    const Ed25519Signature sig = ed25519_sign(kp, msg);
    EXPECT_TRUE(verify_both(kp.public_key, msg, sig));

    // S + m*L for every m that fits 256 bits: from m = 8 on, bit 255 is
    // set and the value only verifies if [S]B is taken mod L.
    Key32 s = s_of(sig);
    for (int m = 1; m < 16; ++m) {
      if (!add_to(s, kL)) break;
      const bool ok = verify_both(kp.public_key, msg, with_s(sig, s));
      if ((s[31] & 0x80) != 0 && ok) ++accepted_high_s;
    }

    // S with bit 255 set.
    Ed25519Signature high = sig;
    high[63] |= 0x80;
    verify_both(kp.public_key, msg, high);

    // Single bit flips in R (bit 255 included) and in S.
    for (int bit : {0, 1, 77, 200, 254, 255, 256, 300, 400, 503, 510, 511}) {
      Ed25519Signature flipped = sig;
      flipped[static_cast<std::size_t>(bit / 8)] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(verify_both(kp.public_key, msg, flipped)) << "bit " << bit;
    }

    // A flipped message bit.
    Bytes bad = msg;
    bad[rng.next() % bad.size()] ^= static_cast<std::uint8_t>(1u << (rng.next() % 8));
    EXPECT_FALSE(verify_both(kp.public_key, bad, sig));
  }
  EXPECT_GT(accepted_high_s, 0);
}

TEST(Curve25519Diff, Ed25519VerifyAgreesOnMalformedKeys) {
  Rng rng(0xa);
  const Ed25519KeyPair kp = ed25519_keypair(random32(rng));
  const Bytes msg = random_bytes(rng, 40);
  const Ed25519Signature sig = ed25519_sign(kp, msg);

  std::vector<Key32> keys;
  // Non-canonical y >= p, both signs of x.
  for (std::uint8_t k = 0; k < 19; k += 2) {
    Key32 a = plus_small(kP, k);
    keys.push_back(a);
    a[31] |= 0x80;
    keys.push_back(a);
  }
  // Random encodings: about half are off the curve.
  for (int i = 0; i < 24; ++i) keys.push_back(random32(rng));
  // The all-zero and all-0xff keys.
  keys.push_back(Key32{});
  Key32 ones;
  ones.fill(0xff);
  keys.push_back(ones);
  for (const Key32& a : keys) {
    verify_both(a, msg, sig);
    verify_both(a, msg, with_s(sig, Key32{}));
  }

  // Small-order A with small-order R and S in {0, L}: some of these are
  // accepted (A = identity, R = identity, S = 0 always is), and both
  // implementations must accept the same ones.
  int accepted = 0;
  for (const Key32& a : small_order_a()) {
    for (const Key32& r : small_order_a()) {
      for (const Key32& s : {Key32{}, kL}) {
        Ed25519Signature forged{};
        std::copy(r.begin(), r.end(), forged.begin());
        forged = with_s(forged, s);
        accepted += verify_both(a, msg, forged) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace securecloud::crypto
