// Differential tests: bigdata::rle_compress / rle_decompress against the
// byte-loop reference in rle_ref.hpp. Every compressed byte must match,
// and every decode must agree on ok/error, on the bytes, and on the error
// message. The shapes target what a word-at-a-time scan gets wrong: runs
// at the 129-byte repeat cap and the 128-byte literal cap, pairs versus
// triples at a literal's end, every alignment mod 8, every short length.
// Inputs end at a PROT_NONE page, so a scan that reads even one byte past
// the end of its input crashes the test.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "bigdata/codec.hpp"
#include "common/rng.hpp"
#include "rle_ref.hpp"

namespace securecloud::bigdata {
namespace {

/// A copy of `bytes` whose last byte sits right before an unreadable page.
class GuardedCopy {
 public:
  explicit GuardedCopy(ByteView bytes) {
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t data_pages = (bytes.size() + page - 1) / page;
    length_ = (data_pages + 1) * page;
    void* base = mmap(nullptr, length_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<std::uint8_t*>(base);
    std::uint8_t* guard = base_ + data_pages * page;
    if (mprotect(guard, page, PROT_NONE) != 0) {
      munmap(base_, length_);
      throw std::bad_alloc();
    }
    view_ = ByteView(guard - bytes.size(), bytes.size());
    if (!bytes.empty()) std::memcpy(guard - bytes.size(), bytes.data(), bytes.size());
  }
  ~GuardedCopy() { munmap(base_, length_); }
  GuardedCopy(const GuardedCopy&) = delete;
  GuardedCopy& operator=(const GuardedCopy&) = delete;

  ByteView view() const { return view_; }

 private:
  std::uint8_t* base_ = nullptr;
  std::size_t length_ = 0;
  ByteView view_;
};

void expect_same_decode(ByteView wire) {
  const GuardedCopy guarded(wire);
  const auto got = rle_decompress(guarded.view());
  const auto want = rle_ref::rle_decompress(wire);
  ASSERT_EQ(got.ok(), want.ok()) << "wire " << hex_encode(wire);
  if (want.ok()) {
    ASSERT_EQ(*got, *want) << "wire " << hex_encode(wire);
  } else {
    ASSERT_EQ(got.error().code, want.error().code) << "wire " << hex_encode(wire);
    ASSERT_EQ(got.error().message, want.error().message) << "wire " << hex_encode(wire);
  }
}

// Compresses `data` both ways and requires equal wires and a decode of
// that wire that matches the reference (and round-trips).
void expect_same(ByteView data) {
  const GuardedCopy guarded(data);
  const Bytes got = rle_compress(guarded.view());
  const Bytes want = rle_ref::rle_compress(data);
  ASSERT_EQ(got, want) << "input " << hex_encode(data);
  expect_same_decode(want);
  const auto back = rle_decompress(got);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(*back, Bytes(data.begin(), data.end()));
}

Bytes random_bytes(Rng& rng, std::size_t n, std::uint64_t alphabet = 256) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(alphabet));
  return out;
}

/// Mostly zero, with an occasional random byte: long runs cut at
/// arbitrary points, and short literals between them.
Bytes sparse_bytes(Rng& rng, std::size_t n) {
  Bytes out(n, 0);
  for (auto& b : out) {
    if (rng.chance(0.08)) b = static_cast<std::uint8_t>(rng.next());
  }
  return out;
}

/// Back-to-back runs of random lengths 1..300 over a small alphabet, so
/// equal neighbouring runs merge and pairs sit next to triples.
Bytes run_bytes(Rng& rng, std::size_t n) {
  Bytes out;
  while (out.size() < n) {
    const std::size_t len = rng.chance(0.5) ? 1 + rng.uniform(4) : 1 + rng.uniform(300);
    out.insert(out.end(), std::min(len, n - out.size()),
               static_cast<std::uint8_t>(rng.uniform(4)));
  }
  return out;
}

TEST(RleDiff, RandomSparseAndLongRunShapes) {
  Rng rng(0x41e);
  for (int i = 0; i < 3000; ++i) {
    const std::size_t n = rng.uniform(i % 10 == 0 ? 5000 : 700);
    SCOPED_TRACE(i);
    expect_same(random_bytes(rng, n));
    expect_same(random_bytes(rng, n, 2 + rng.uniform(3)));
    expect_same(sparse_bytes(rng, n));
    expect_same(run_bytes(rng, n));
    if (HasFatalFailure()) return;
  }
}

TEST(RleDiff, EveryLengthUpTo40) {
  Rng rng(40);
  for (std::size_t n = 0; n <= 40; ++n) {
    SCOPED_TRACE(n);
    expect_same(Bytes(n, 0x00));
    expect_same(Bytes(n, 0xff));
    Bytes distinct(n);
    for (std::size_t i = 0; i < n; ++i) distinct[i] = static_cast<std::uint8_t>(i * 37 + 1);
    expect_same(distinct);
    for (int trial = 0; trial < 200; ++trial) {
      expect_same(random_bytes(rng, n, 2));
      expect_same(random_bytes(rng, n, 3));
      expect_same(random_bytes(rng, n));
    }
    if (HasFatalFailure()) return;
  }
}

TEST(RleDiff, RunLengthsAtEveryOffsetModEight) {
  // 127..130 straddle the literal and repeat caps; 257..259 split into a
  // capped repeat plus a short remainder.
  Rng rng(8);
  for (const std::size_t run : {2, 3, 127, 128, 129, 130, 257, 258, 259}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (const std::size_t tail : {0, 1, 2, 7, 9, 10, 11, 40, 140}) {
        SCOPED_TRACE(testing::Message() << "run=" << run << " offset=" << offset
                                        << " tail=" << tail);
        // Distinct neighbours so the run neither merges nor hides.
        Bytes data;
        for (std::size_t i = 0; i < offset; ++i) {
          data.push_back(static_cast<std::uint8_t>(0x10 + i));
        }
        data.insert(data.end(), run, 0xab);
        for (std::size_t i = 0; i < tail; ++i) {
          data.push_back(static_cast<std::uint8_t>(0x40 + i));
        }
        expect_same(data);
        // The same run between random bytes (which may extend it).
        Bytes noisy = random_bytes(rng, offset);
        noisy.insert(noisy.end(), run, static_cast<std::uint8_t>(rng.next()));
        append(noisy, random_bytes(rng, tail));
        expect_same(noisy);
        // Two runs back to back with one separator byte.
        Bytes twin = data;
        twin.push_back(0x01);
        twin.insert(twin.end(), run, 0xcd);
        expect_same(twin);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(RleDiff, FlippedAndTruncatedWires) {
  Rng rng(0xf11);
  for (int i = 0; i < 400; ++i) {
    const std::size_t n = rng.uniform(i % 4 == 0 ? 1200 : 300);
    Bytes data;
    switch (i % 3) {
      case 0: data = random_bytes(rng, n); break;
      case 1: data = sparse_bytes(rng, n); break;
      default: data = run_bytes(rng, n); break;
    }
    const Bytes wire = rle_ref::rle_compress(data);
    SCOPED_TRACE(i);
    // Every truncation, including the empty wire.
    for (std::size_t len = 0; len < wire.size(); ++len) {
      expect_same_decode(ByteView(wire.data(), len));
    }
    // Trailing garbage.
    Bytes longer = wire;
    longer.push_back(static_cast<std::uint8_t>(rng.next()));
    expect_same_decode(longer);
    // Flipped bits and replaced bytes, header included.
    for (int f = 0; f < 40; ++f) {
      Bytes mutated = wire;
      const std::size_t at = rng.uniform(mutated.size());
      if (f % 2 == 0) {
        mutated[at] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
      } else {
        mutated[at] = static_cast<std::uint8_t>(rng.next());
      }
      expect_same_decode(mutated);
    }
    if (HasFatalFailure()) return;
  }
  // Pure noise wires.
  for (int i = 0; i < 2000; ++i) expect_same_decode(random_bytes(rng, rng.uniform(64)));
}

}  // namespace
}  // namespace securecloud::bigdata
