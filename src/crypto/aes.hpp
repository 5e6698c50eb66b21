// AES-128/AES-256 block cipher (FIPS 197).
//
// This is the project's only block cipher; CTR and GCM modes are layered
// on top. Only the *encrypt* direction is needed by CTR/GCM, but decrypt
// is provided for completeness and tested against FIPS vectors.
//
// Two backends, picked once per process by cpuid (crypto/kernels.hpp):
// AES-NI when the CPU has AES-NI, PCLMULQDQ and SSE4.1, else the portable
// S-box code, which is also the oracle the hardware path is tested
// against. Both produce identical output.
//
// Side channels: the AES-NI path is constant-time (no secret-dependent
// memory access). The portable S-box lookups index memory by secret bytes
// and are *not* constant-time against a cache-observing host; that path
// runs only on CPUs without AES-NI/PCLMULQDQ. decrypt_block is always
// portable (tests only).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace securecloud::crypto {

namespace kernels {
struct Access;
}

inline constexpr std::size_t kAesBlockSize = 16;
using AesBlock = std::array<std::uint8_t, kAesBlockSize>;

class Aes {
 public:
  /// Precondition: key.size() is 16 (AES-128) or 32 (AES-256).
  explicit Aes(ByteView key);

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  AesBlock encrypt_block(const AesBlock& in) const {
    AesBlock out;
    encrypt_block(in.data(), out.data());
    return out;
  }

  int rounds() const { return rounds_; }

 private:
  friend struct kernels::Access;
  friend class AesGcm;
  friend void aes_ctr_xor(const Aes& aes, const std::uint8_t iv16[16], MutableByteView data);

  Aes(ByteView key, bool hardware);

  bool hardware_;                               // AES-NI kernels, else portable
  int rounds_;                                  // 10 (AES-128) or 14 (AES-256)
  std::array<std::uint32_t, 60> round_keys_{};  // 4 * (rounds + 1) words
  /// The same schedule serialized big-endian: the AES-NI round-key layout.
  alignas(16) std::array<std::uint8_t, 240> round_key_bytes_{};
};

}  // namespace securecloud::crypto
