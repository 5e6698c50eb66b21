// X25519 Diffie–Hellman (RFC 7748).
//
// Key agreement for: SCF delivery channels (enclave <-> configuration
// service), SCBR key-exchange, and attested secure channels. A
// Montgomery ladder over the radix-2^51 field of field25519.hpp (5 limbs,
// 128-bit products), with a constant-time conditional swap per scalar
// bit and no branch or index on secret data. Outputs are byte-identical
// to the TweetNaCl routines it replaced; tests/curve25519_diff_test.cpp
// checks that against a copy of them.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace securecloud::crypto {

inline constexpr std::size_t kX25519KeySize = 32;
using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

/// Computes n * P where P is a point encoded as u-coordinate.
/// The scalar is clamped per RFC 7748 before use.
X25519Key x25519(const X25519Key& scalar, const X25519Key& point);

/// Computes the public key n * basepoint(9).
X25519Key x25519_base(const X25519Key& scalar);

struct X25519KeyPair {
  X25519Key private_key;
  X25519Key public_key;
};

/// Derives a keypair from 32 bytes of entropy.
X25519KeyPair x25519_keypair(const X25519Key& entropy);

}  // namespace securecloud::crypto
