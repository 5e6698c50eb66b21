// SHA-256 (FIPS 180-4).
//
// Used for enclave measurements (MRENCLAVE), content-addressed image
// layers, FS-protection-file hashes, and as the hash underlying HMAC/HKDF.
// Compresses with SHA-NI when the CPU has it (crypto/kernels.hpp), else
// with the portable code; digests are identical.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace securecloud::crypto {

namespace kernels {
struct Access;
}

inline constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256. Typical use:
///   Sha256 h; h.update(a); h.update(b); auto d = h.finish();
/// `finish` may be called once; the object is then exhausted.
class Sha256 {
 public:
  Sha256();

  void update(ByteView data);
  Sha256Digest finish();

  /// One-shot convenience.
  static Sha256Digest hash(ByteView data);

 private:
  friend struct kernels::Access;

  explicit Sha256(bool hardware);

  void process_blocks(const std::uint8_t* data, std::size_t blocks);
  void process_block(const std::uint8_t* block);  // portable compression

  bool hardware_;  // SHA-NI kernel, else portable
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Digest as a Bytes buffer (for APIs that carry digests in messages).
inline Bytes digest_bytes(const Sha256Digest& d) { return Bytes(d.begin(), d.end()); }

}  // namespace securecloud::crypto
