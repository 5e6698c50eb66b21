#include "crypto/sha256.hpp"

#include "crypto/kernels.hpp"

namespace securecloud::crypto {

namespace {

constexpr const auto& kK = kernels::kSha256K;

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

Sha256::Sha256() : Sha256(kernels::has_sha_ni()) {}

Sha256::Sha256(bool hardware)
    : hardware_(hardware),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t blocks) {
  if (hardware_) {
    kernels::sha256_blocks_x86(state_.data(), data, blocks);
    return;
  }
  for (std::size_t i = 0; i < blocks; ++i) process_block(data + 64 * i);
}

void Sha256::process_block(const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = load_be32(ByteView(block + 4 * i, 4));
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(ByteView data) {
  // An empty view may carry a null pointer, and memcpy from null is UB
  // even for zero bytes.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  process_blocks(data.data() + offset, blocks);
  offset += 64 * blocks;
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Pad in place: 0x80, zeros up to byte 56 (spilling into a second block
  // when fewer than 9 bytes are free), then the 64-bit bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    process_blocks(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  store_be64(MutableByteView(buffer_.data() + 56, 8), bit_len);
  process_blocks(buffer_.data(), 1);
  buffer_len_ = 0;

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    store_be32(MutableByteView(out.data() + 4 * i, 4), state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Sha256Digest Sha256::hash(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace securecloud::crypto
