#include "bigdata/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace securecloud::bigdata {

void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

bool get_varint(ByteReader& reader, std::uint64_t& v) {
  v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    std::uint8_t byte = 0;
    if (!reader.get_u8(byte)) return false;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;  // over-long encoding
}

Bytes encode_series(const std::vector<std::int64_t>& series) {
  Bytes out;
  put_varint(out, series.size());
  std::int64_t previous = 0;
  for (const std::int64_t v : series) {
    put_varint(out, zigzag_encode(v - previous));
    previous = v;
  }
  return out;
}

Result<std::vector<std::int64_t>> decode_series(ByteView wire) {
  ByteReader reader(wire);
  std::uint64_t count = 0;
  if (!get_varint(reader, count)) return Error::protocol("truncated series header");
  if (count > wire.size()) {
    // Each element takes >= 1 byte; a larger count is malformed.
    return Error::protocol("series count exceeds payload");
  }
  std::vector<std::int64_t> series;
  series.reserve(count);
  std::int64_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t raw = 0;
    if (!get_varint(reader, raw)) return Error::protocol("truncated series element");
    previous += zigzag_decode(raw);
    series.push_back(previous);
  }
  if (!reader.done()) return Error::protocol("trailing series bytes");
  return series;
}

namespace {
// Control bytes: [0x00..0x7f] = literal run of (n+1) bytes follows;
// [0x80..0xff] = next byte repeats (n-0x80+2) times.
constexpr std::size_t kMaxLiteral = 128;
constexpr std::size_t kMaxRepeat = 129;

constexpr std::uint64_t kLowBytes = 0x0101010101010101ULL;
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;

// Unaligned 8-byte load; memcpy keeps it defined behaviour.
std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

// Offset of the lowest-addressed nonzero byte of a nonzero word.
std::size_t first_nonzero_byte(std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::size_t>(std::countr_zero(w)) / 8;
  } else {
    return static_cast<std::size_t>(std::countl_zero(w)) / 8;
  }
}

// 0x80 in exactly the bytes of `w` that are zero (no borrow false
// positives, so first_nonzero_byte is exact on either endianness).
std::uint64_t zero_bytes(std::uint64_t w) {
  return ~(((w & kLow7) + kLow7) | w | kLow7);
}

// End of the literal run that starts at i: the first p in (i, i+128)
// where a >=3 repeat starts, else the cap. Byte k of
// (w0^w1)|(w1^w2), with the words loaded at p, p+1 and p+2, is zero iff
// data[p+k] == data[p+k+1] == data[p+k+2]; the loads read [p, p+10), so
// the word scan stops 10 bytes before the end and bytes finish the tail.
std::size_t literal_end(const std::uint8_t* d, std::size_t n, std::size_t i) {
  const std::size_t cap = std::min(n, i + kMaxLiteral);
  std::size_t p = i + 1;
  for (; p < cap && p + 10 <= n; p += 8) {
    const std::uint64_t w1 = load_word(d + p + 1);
    const std::uint64_t triples =
        zero_bytes((load_word(d + p) ^ w1) | (w1 ^ load_word(d + p + 2)));
    if (triples != 0) return std::min(cap, p + first_nonzero_byte(triples));
  }
  for (; p < cap; ++p) {
    if (p + 2 < n && d[p] == d[p + 1] && d[p] == d[p + 2]) return p;
  }
  return cap;
}

// End of the repeat run of d[i], capped at kMaxRepeat bytes.
std::size_t repeat_end(const std::uint8_t* d, std::size_t n, std::size_t i) {
  const std::size_t cap = std::min(n, i + kMaxRepeat);
  const std::uint64_t splat = kLowBytes * d[i];
  std::size_t j = i + 1;
  for (; j + 8 <= cap; j += 8) {
    const std::uint64_t diff = load_word(d + j) ^ splat;
    if (diff != 0) return j + first_nonzero_byte(diff);
  }
  while (j < cap && d[j] == d[i]) ++j;
  return j;
}
}  // namespace

Bytes rle_compress(ByteView data) {
  const std::uint8_t* d = data.data();
  const std::size_t n = data.size();
  Bytes out;
  // Worst case: one control byte per 128 literal bytes plus the header.
  out.reserve(n + n / kMaxLiteral + 12);
  put_varint(out, n);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t run = repeat_end(d, n, i) - i;
    if (run >= 2) {
      out.push_back(static_cast<std::uint8_t>(0x80 + run - 2));
      out.push_back(d[i]);
      i += run;
      continue;
    }
    const std::size_t end = literal_end(d, n, i);
    out.push_back(static_cast<std::uint8_t>(end - i - 1));
    out.insert(out.end(), d + i, d + end);
    i = end;
  }
  return out;
}

Result<Bytes> rle_decompress(ByteView wire) {
  ByteReader reader(wire);
  std::uint64_t expected_size = 0;
  if (!get_varint(reader, expected_size)) return Error::protocol("truncated RLE header");
  // A repeat control emits at most kMaxRepeat bytes per 2 wire bytes, so
  // any genuine stream satisfies this bound; a forged header must not be
  // allowed to drive allocation.
  if (expected_size > wire.size() * kMaxRepeat) {
    return Error::protocol("RLE header claims impossible size");
  }

  const std::uint8_t* w = wire.data();
  const std::size_t n = wire.size();
  std::size_t pos = n - reader.remaining();
  Bytes out;
  out.reserve(expected_size);
  while (out.size() < expected_size) {
    if (pos == n) return Error::protocol("truncated RLE stream");
    const std::uint8_t control = w[pos++];
    if (control < 0x80) {
      const std::size_t len = control + 1u;
      if (n - pos < len) return Error::protocol("truncated RLE literal");
      out.insert(out.end(), w + pos, w + pos + len);
      pos += len;
    } else {
      if (pos == n) return Error::protocol("truncated RLE repeat");
      out.insert(out.end(), control - 0x80u + 2, w[pos++]);
    }
    if (out.size() > expected_size) return Error::protocol("RLE overrun");
  }
  if (pos != n) return Error::protocol("trailing RLE bytes");
  return out;
}

}  // namespace securecloud::bigdata
