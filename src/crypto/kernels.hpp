// Crypto backend internals: CPU feature checks, the x86 hardware kernels
// and the hooks that pin an object to one backend.
//
// Internal to src/crypto and its tests; the public headers only forward-
// declare kernels::Access. Aes, AesGcm and Sha256 pick their backend once
// per object from has_aes_clmul()/has_sha_ni() (one cpuid probe per
// process). There is no knob: the hardware path runs whenever the CPU has
// the instructions, and the portable code in aes.cpp/gcm.cpp/sha256.cpp is
// both the fallback and the oracle the differential test compares against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/gcm.hpp"
#include "crypto/sha256.hpp"

namespace securecloud::crypto::kernels {

/// SHA-256 round constants (FIPS 180-4 §4.2.2), shared by both backends.
inline constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// AES-NI + PCLMULQDQ + SSE4.1: the AES, CTR and GHASH kernels below.
bool has_aes_clmul();
/// SHA-NI + SSE4.1: the SHA-256 kernel below.
bool has_sha_ni();

// x86 kernels (x86_kernels.cpp). Callable only when the matching has_*()
// check is true. Round keys are the FIPS-197 schedule as big-endian bytes,
// 16 * (rounds + 1) of them.

void aes_encrypt_x86(const std::uint8_t* round_keys, int rounds, const std::uint8_t in[16],
                     std::uint8_t out[16]);

/// XORs `data` with the CTR keystream from counter block `iv`, eight blocks
/// at a time; only the last 32 bits of the counter increment (and wrap).
void aes_ctr_xor_x86(const std::uint8_t* round_keys, int rounds, const std::uint8_t iv[16],
                     std::uint8_t* data, std::size_t len);

/// Fills `powers` with H, H^2, H^3, H^4 (16 bytes each, byte-reflected)
/// for the GHASH subkey `h`.
void ghash_init_x86(const std::uint8_t h[16], std::uint8_t powers[64]);

/// Absorbs `data` into the GHASH state `y` (a big-endian block), zero-
/// padding a final partial block as GCM does for AAD and ciphertext.
void ghash_x86(const std::uint8_t powers[64], std::uint8_t y[16], const std::uint8_t* data,
               std::size_t len);

/// Runs the SHA-256 compression function over `blocks` 64-byte blocks.
void sha256_blocks_x86(std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks);

/// Builds objects pinned to one backend, so the differential test can run
/// the portable and the hardware path side by side in one process.
/// Precondition for hardware = true: the matching has_*() check holds.
struct Access {
  static Aes aes(ByteView key, bool hardware) { return Aes(key, hardware); }
  static AesGcm gcm(ByteView key, bool hardware) { return AesGcm(key, hardware); }
  static Sha256 sha256(bool hardware) { return Sha256(hardware); }
};

}  // namespace securecloud::crypto::kernels
