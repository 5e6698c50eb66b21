// Reference RLE codec for differential tests.
//
// This is the byte-at-a-time rle_compress / rle_decompress that
// src/bigdata/codec.cpp used before its word-at-a-time scans: one compare
// per byte to measure a repeat run, one triple test per byte to end a
// literal, one push_back per decoded literal byte. It is slow and simple
// on purpose: the tests compare bigdata::rle_* against it byte for byte
// and error message for error message. Nothing in src/ includes it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bigdata/codec.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"

namespace securecloud::bigdata::rle_ref {

// Control bytes: [0x00..0x7f] = literal run of (n+1) bytes follows;
// [0x80..0xff] = next byte repeats (n-0x80+2) times.
inline constexpr std::size_t kMaxLiteral = 128;
inline constexpr std::size_t kMaxRepeat = 129;

inline Bytes rle_compress(ByteView data) {
  Bytes out;
  put_varint(out, data.size());
  std::size_t i = 0;
  while (i < data.size()) {
    // Measure the repeat run at i.
    std::size_t run = 1;
    while (i + run < data.size() && data[i + run] == data[i] && run < kMaxRepeat) {
      ++run;
    }
    if (run >= 2) {
      out.push_back(static_cast<std::uint8_t>(0x80 + run - 2));
      out.push_back(data[i]);
      i += run;
      continue;
    }
    // Literal run: until the next >=3 repeat or the cap.
    std::size_t literal_end = i + 1;
    while (literal_end < data.size() && literal_end - i < kMaxLiteral) {
      if (literal_end + 2 < data.size() && data[literal_end] == data[literal_end + 1] &&
          data[literal_end] == data[literal_end + 2]) {
        break;
      }
      ++literal_end;
    }
    const std::size_t len = literal_end - i;
    out.push_back(static_cast<std::uint8_t>(len - 1));
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(i),
               data.begin() + static_cast<std::ptrdiff_t>(literal_end));
    i = literal_end;
  }
  return out;
}

inline Result<Bytes> rle_decompress(ByteView wire) {
  ByteReader reader(wire);
  std::uint64_t expected_size = 0;
  if (!get_varint(reader, expected_size)) return Error::protocol("truncated RLE header");
  // A repeat control emits at most kMaxRepeat bytes per 2 wire bytes, so
  // any genuine stream satisfies this bound; a forged header must not be
  // allowed to drive allocation.
  if (expected_size > wire.size() * kMaxRepeat) {
    return Error::protocol("RLE header claims impossible size");
  }

  Bytes out;
  out.reserve(expected_size);
  while (out.size() < expected_size) {
    std::uint8_t control = 0;
    if (!reader.get_u8(control)) return Error::protocol("truncated RLE stream");
    if (control < 0x80) {
      const std::size_t len = control + 1;
      if (reader.remaining() < len) return Error::protocol("truncated RLE literal");
      for (std::size_t i = 0; i < len; ++i) {
        std::uint8_t b = 0;
        (void)reader.get_u8(b);
        out.push_back(b);
      }
    } else {
      const std::size_t len = control - 0x80 + 2;
      std::uint8_t b = 0;
      if (!reader.get_u8(b)) return Error::protocol("truncated RLE repeat");
      out.insert(out.end(), len, b);
    }
    if (out.size() > expected_size) return Error::protocol("RLE overrun");
  }
  if (!reader.done()) return Error::protocol("trailing RLE bytes");
  return out;
}

}  // namespace securecloud::bigdata::rle_ref
