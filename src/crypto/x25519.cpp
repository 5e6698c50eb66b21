#include "crypto/x25519.hpp"

#include "crypto/field25519.hpp"

namespace securecloud::crypto {

namespace f = f25519;

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  std::uint8_t z[32];
  std::memcpy(z, scalar.data(), 32);
  // RFC 7748 clamping.
  z[31] = static_cast<std::uint8_t>((z[31] & 127) | 64);
  z[0] &= 248;

  f::Gf x;
  f::unpack(x, point.data());

  f::Gf a = f::kGf1, b = x, c = f::kGf0, d = f::kGf1;

  // Montgomery ladder: a constant sequence of field ops per scalar bit.
  for (int i = 254; i >= 0; --i) {
    const int r = (z[i >> 3] >> (i & 7)) & 1;
    f::cswap(a, b, r);
    f::cswap(c, d, r);
    f::Gf e, ff;
    f::add(e, a, c);
    f::sub(a, a, c);
    f::add(c, b, d);
    f::sub(b, b, d);
    f::square(d, e);
    f::square(ff, a);
    f::mul(a, c, a);
    f::mul(c, b, e);
    f::add(e, a, c);
    f::sub(a, a, c);
    f::square(b, a);
    f::sub(c, d, ff);
    f::mul_small(a, c, 121665);
    f::add(a, a, d);
    f::mul(c, c, a);
    f::mul(a, d, ff);
    f::mul(d, b, x);
    f::square(b, e);
    f::cswap(a, b, r);
    f::cswap(c, d, r);
  }

  f::invert(c, c);
  f::mul(a, a, c);

  X25519Key out;
  f::pack(out.data(), a);
  return out;
}

X25519Key x25519_base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return x25519(scalar, base);
}

X25519KeyPair x25519_keypair(const X25519Key& entropy) {
  X25519KeyPair kp;
  kp.private_key = entropy;
  kp.public_key = x25519_base(kp.private_key);
  return kp;
}

}  // namespace securecloud::crypto
