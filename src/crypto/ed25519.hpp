// Ed25519 signatures (RFC 8032).
//
// Signing roles in SecureCloud:
//  - the simulated Quoting Enclave signs attestation quotes,
//  - image creators sign FS protection files (integrity without
//    confidentiality, enabling image customization per the paper §V-A),
//  - the SCBR key service signs authorization grants.
//
// Detached signatures on the radix-2^51 field of field25519.hpp:
// [s]B from a constant-time signed radix-16 base-point table, [k]A (in
// verification) from a constant-time ladder with dedicated doubling.
// Keys, signatures and every accept/reject decision equal those of
// TweetNaCl's crypto_sign, which it replaced: verified against RFC 8032
// vectors and, differentially, against a copy of TweetNaCl in
// tests/curve25519_ref.hpp.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace securecloud::crypto {

inline constexpr std::size_t kEd25519SeedSize = 32;
inline constexpr std::size_t kEd25519PublicKeySize = 32;
inline constexpr std::size_t kEd25519SignatureSize = 64;

using Ed25519Seed = std::array<std::uint8_t, kEd25519SeedSize>;
using Ed25519PublicKey = std::array<std::uint8_t, kEd25519PublicKeySize>;
using Ed25519Signature = std::array<std::uint8_t, kEd25519SignatureSize>;

struct Ed25519KeyPair {
  Ed25519Seed seed;
  Ed25519PublicKey public_key;
};

/// Derives a keypair from a 32-byte seed (deterministic).
Ed25519KeyPair ed25519_keypair(const Ed25519Seed& seed);

/// Detached signature over `message`.
Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, ByteView message);

/// Verifies a detached signature. Rejects malformed points and
/// non-canonical encodings the way TweetNaCl does.
bool ed25519_verify(const Ed25519PublicKey& pk, ByteView message,
                    const Ed25519Signature& sig);

}  // namespace securecloud::crypto
