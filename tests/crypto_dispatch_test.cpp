// Differential test of the two crypto backends: the portable code (the
// oracle) against the x86 AES-NI / PCLMULQDQ / SHA-NI kernels, run side by
// side in one process through the internal kernels::Access hooks. The
// known-answer tests run the portable path everywhere, so it stays covered
// on CPUs where the public classes pick the hardware path; the hardware
// half skips, saying why, when cpuid lacks the instructions.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/ctr.hpp"
#include "crypto/kernels.hpp"

namespace securecloud::crypto {
namespace {

using kernels::Access;

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

GcmNonce random_nonce(Rng& rng) {
  GcmNonce n;
  for (auto& x : n) x = static_cast<std::uint8_t>(rng.next());
  return n;
}

// The backends this CPU can run: portable always, hardware when cpuid has it.
std::vector<bool> aes_paths() {
  return kernels::has_aes_clmul() ? std::vector<bool>{false, true} : std::vector<bool>{false};
}
std::vector<bool> sha_paths() {
  return kernels::has_sha_ni() ? std::vector<bool>{false, true} : std::vector<bool>{false};
}

#define SKIP_WITHOUT_AES_CLMUL()                                                       \
  if (!kernels::has_aes_clmul())                                                       \
  GTEST_SKIP() << "cpuid lacks AES-NI, PCLMULQDQ or SSE4.1: only the portable path " \
                  "runs on this CPU"
#define SKIP_WITHOUT_SHA_NI()                                                      \
  if (!kernels::has_sha_ni())                                                      \
  GTEST_SKIP() << "cpuid lacks SHA-NI or SSE4.1: only the portable path runs on " \
                  "this CPU"

// ------------------------------------------------------ known answers, per path

TEST(CryptoDispatch, Fips197VectorsOnEveryPath) {
  const Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  for (const bool hw : aes_paths()) {
    const Aes aes128 = Access::aes(hex_decode("000102030405060708090a0b0c0d0e0f"), hw);
    const Aes aes256 = Access::aes(
        hex_decode("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"), hw);
    std::uint8_t ct[16];
    aes128.encrypt_block(pt.data(), ct);
    EXPECT_EQ(hex_encode(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a") << "hw=" << hw;
    aes256.encrypt_block(pt.data(), ct);
    EXPECT_EQ(hex_encode(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089") << "hw=" << hw;
  }
}

TEST(CryptoDispatch, NistGcmVectorOnEveryPath) {
  // McGrew & Viega test case 4 (AES-128, 20-byte AAD, 60-byte plaintext).
  const Bytes pt = hex_decode(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = hex_decode("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  GcmNonce nonce;
  const Bytes n = hex_decode("cafebabefacedbaddecaf888");
  std::memcpy(nonce.data(), n.data(), n.size());
  for (const bool hw : aes_paths()) {
    const AesGcm gcm = Access::gcm(hex_decode("feffe9928665731c6d6a8f9467308308"), hw);
    GcmTag tag;
    const Bytes ct = gcm.seal(nonce, aad, pt, tag);
    EXPECT_EQ(hex_encode(ct),
              "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
              "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091")
        << "hw=" << hw;
    EXPECT_EQ(hex_encode(tag), "5bc94fbc3221a5db94fae95ae7121a47") << "hw=" << hw;
  }
}

TEST(CryptoDispatch, Sha256VectorsOnEveryPath) {
  for (const bool hw : sha_paths()) {
    Sha256 abc = Access::sha256(hw);
    abc.update(to_bytes("abc"));
    EXPECT_EQ(hex_encode(abc.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << "hw=" << hw;
    Sha256 two = Access::sha256(hw);
    two.update(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
    EXPECT_EQ(hex_encode(two.finish()),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << "hw=" << hw;
  }
}

// ------------------------------------------------- portable vs hardware

TEST(CryptoDispatch, AesBlocksMatchPortable) {
  SKIP_WITHOUT_AES_CLMUL();
  Rng rng(0xae5);
  for (const std::size_t key_size : {16, 32}) {
    for (int k = 0; k < 64; ++k) {
      const Bytes key = random_bytes(rng, key_size);
      const Aes portable = Access::aes(key, false);
      const Aes hardware = Access::aes(key, true);
      for (int b = 0; b < 16; ++b) {
        const Bytes in = random_bytes(rng, 16);
        std::uint8_t want[16], got[16];
        portable.encrypt_block(in.data(), want);
        hardware.encrypt_block(in.data(), got);
        ASSERT_EQ(hex_encode(ByteView(got, 16)), hex_encode(ByteView(want, 16)))
            << "key_size=" << key_size;
      }
    }
  }
}

TEST(CryptoDispatch, CtrMatchesPortableAtEveryLengthAndAcrossTheCounterWrap) {
  SKIP_WITHOUT_AES_CLMUL();
  Rng rng(0xc7);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 520; ++n) lengths.push_back(n);  // around the 8-block stride
  for (const std::size_t n : {1000, 4095, 4096, 4097, 16384 + 15, 65535, 65536}) {
    lengths.push_back(n);
  }
  for (const std::size_t key_size : {16, 32}) {
    const Bytes key = random_bytes(rng, key_size);
    const Aes portable = Access::aes(key, false);
    const Aes hardware = Access::aes(key, true);
    for (const std::size_t n : lengths) {
      const Bytes data = random_bytes(rng, n);
      std::uint8_t iv[16];
      for (auto& x : iv) x = static_cast<std::uint8_t>(rng.next());
      if (n % 2 == 0) {  // start two blocks before the 32-bit counter wraps
        iv[12] = iv[13] = iv[14] = 0xff;
        iv[15] = 0xfe;
      }
      ASSERT_EQ(aes_ctr(hardware, iv, data), aes_ctr(portable, iv, data))
          << "key_size=" << key_size << " len=" << n << " wrap=" << (n % 2 == 0);
    }
  }

  // The wrap itself: block 2 from ...fffffffe uses counter ...00000000 and
  // leaves the first 96 bits alone.
  const Aes hardware = Access::aes(Bytes(16, 0x42), true);
  std::uint8_t iv[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0xff, 0xff, 0xff, 0xfe};
  const Bytes ks = aes_ctr(hardware, iv, Bytes(48, 0));
  std::uint8_t wrapped[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 0, 0, 0};
  std::uint8_t want[16];
  hardware.encrypt_block(wrapped, want);
  EXPECT_EQ(hex_encode(ByteView(ks.data() + 32, 16)), hex_encode(ByteView(want, 16)));
}

TEST(CryptoDispatch, GcmSealOpenMatchPortableAndBothRejectForgeries) {
  SKIP_WITHOUT_AES_CLMUL();
  Rng rng(0x9c3);
  std::vector<std::size_t> pt_lengths;
  for (std::size_t n = 0; n <= 160; ++n) pt_lengths.push_back(n);
  for (const std::size_t n : {255, 256, 257, 1023, 4096, 4111, 16384, 65535, 65536}) {
    pt_lengths.push_back(n);
  }
  // Every AAD length 0..300, cycling through the plaintext lengths.
  for (std::size_t trial = 0; trial < 301; ++trial) {
    const std::size_t pt_len = pt_lengths[trial % pt_lengths.size()];
    const std::size_t aad_len = trial;
    const Bytes key = random_bytes(rng, trial % 2 == 0 ? 16 : 32);
    const AesGcm portable = Access::gcm(key, false);
    const AesGcm hardware = Access::gcm(key, true);
    const GcmNonce nonce = random_nonce(rng);
    const Bytes aad = random_bytes(rng, aad_len);
    const Bytes pt = random_bytes(rng, pt_len);
    const std::string where =
        "pt_len=" + std::to_string(pt_len) + " aad_len=" + std::to_string(aad_len);

    GcmTag want_tag, got_tag;
    const Bytes want = portable.seal(nonce, aad, pt, want_tag);
    const Bytes got = hardware.seal(nonce, aad, pt, got_tag);
    ASSERT_EQ(got, want) << where;
    ASSERT_EQ(hex_encode(got_tag), hex_encode(want_tag)) << where;

    for (const AesGcm* gcm : {&portable, &hardware}) {
      auto back = gcm->open(nonce, aad, want, want_tag);
      ASSERT_TRUE(back.ok()) << where;
      ASSERT_EQ(*back, pt) << where;

      GcmTag bad_tag = want_tag;
      bad_tag[rng.uniform(kGcmTagSize)] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
      EXPECT_EQ(gcm->open(nonce, aad, want, bad_tag).error().code, ErrorCode::kIntegrityViolation)
          << where;
      if (!want.empty()) {
        Bytes bad_ct = want;
        bad_ct[rng.uniform(bad_ct.size())] ^= 0x01;
        EXPECT_FALSE(gcm->open(nonce, aad, bad_ct, want_tag).ok()) << where;
      }
    }
  }
}

TEST(CryptoDispatch, Sha256MatchesPortableAtEveryLength) {
  SKIP_WITHOUT_SHA_NI();
  Rng rng(0x5a256);
  const Bytes data = random_bytes(rng, 65536);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  lengths.push_back(65536);
  for (const std::size_t n : lengths) {
    const ByteView msg(data.data(), n);
    Sha256 portable = Access::sha256(false);
    Sha256 hardware = Access::sha256(true);
    portable.update(msg);
    // Feed the hardware side in two pieces so buffered and bulk blocks mix.
    const std::size_t split = n == 0 ? 0 : rng.uniform(n + 1);
    hardware.update(msg.subspan(0, split));
    hardware.update(msg.subspan(split));
    ASSERT_EQ(hardware.finish(), portable.finish()) << "len=" << n << " split=" << split;
  }
}

}  // namespace
}  // namespace securecloud::crypto
