// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// The project's AEAD: protects file chunks (SCONE shielded FS), EPC pages
// evicted from the simulated enclave, secure-channel records, SCBR
// publications/subscriptions, and sealed blobs. 96-bit nonces, 128-bit
// tags.
//
// Backend: with AES-NI + PCLMULQDQ the context runs 8-way AES-NI CTR and
// a PCLMULQDQ GHASH over H..H^4 (constant-time); otherwise the portable
// S-box AES and Shoup-table GHASH (see the side-channel note in aes.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/aes.hpp"

namespace securecloud::crypto {

inline constexpr std::size_t kGcmNonceSize = 12;
inline constexpr std::size_t kGcmTagSize = 16;

using GcmNonce = std::array<std::uint8_t, kGcmNonceSize>;
using GcmTag = std::array<std::uint8_t, kGcmTagSize>;

/// AES-GCM context bound to one key (16- or 32-byte). Stateless across
/// calls: callers supply a unique nonce per (key, message).
class AesGcm {
 public:
  explicit AesGcm(ByteView key);

  /// Encrypts `plaintext`, authenticating `aad` as associated data.
  /// Returns ciphertext (same length as plaintext); writes the tag.
  Bytes seal(const GcmNonce& nonce, ByteView aad, ByteView plaintext, GcmTag& tag) const;

  /// Decrypts and verifies. Returns kIntegrityViolation on tag mismatch
  /// without exposing any plaintext.
  Result<Bytes> open(const GcmNonce& nonce, ByteView aad, ByteView ciphertext,
                     const GcmTag& tag) const;

  /// Wire-format helpers: nonce || ciphertext || tag in a single buffer.
  Bytes seal_combined(const GcmNonce& nonce, ByteView aad, ByteView plaintext) const;
  Result<Bytes> open_combined(ByteView aad, ByteView combined) const;

 private:
  friend struct kernels::Access;

  struct Gf128 {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
  };

  AesGcm(ByteView key, bool hardware);

  Gf128 ghash(ByteView aad, ByteView ciphertext) const;
  Gf128 gf_mul_h(Gf128 x) const;

  Aes aes_;  // its backend is this context's backend
  /// Hardware path: H, H^2, H^3, H^4 of the GHASH subkey H = AES_K(0^128),
  /// byte-reflected, for the 4-block aggregated PCLMULQDQ GHASH.
  alignas(16) std::array<std::uint8_t, 64> h_powers_{};
  /// Portable path only (empty otherwise). Shoup 8-bit table:
  /// h_table_[b] = (b placed in the first byte) · H. Built once per key;
  /// gf_mul_h then runs 16 table lookups + shifts per block instead of a
  /// 128-iteration bitwise multiply.
  std::vector<Gf128> h_table_;
};

/// Deterministic nonce construction from a 64-bit counter. Safe as long
/// as each key's counter never repeats (the secure channel and EPC pager
/// guarantee this by construction).
GcmNonce nonce_from_counter(std::uint64_t counter, std::uint32_t domain = 0);

}  // namespace securecloud::crypto
