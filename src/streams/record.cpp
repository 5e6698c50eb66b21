#include "streams/record.hpp"

#include <bit>

namespace securecloud::streams {

namespace {
// Empty key and payload: two u32 lengths plus three u64 fields.
constexpr std::size_t kMinRecordWireBytes = 4 + 8 + 8 + 8 + 4;

void put_f64(Bytes& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

bool get_f64(ByteReader& in, double& v) {
  std::uint64_t bits = 0;
  if (!in.get_u64(bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}
}  // namespace

void put_record(Bytes& out, const Record& record) {
  put_str(out, record.key);
  put_u64(out, record.timestamp_s);
  put_f64(out, record.value);
  put_u64(out, record.origin_ns);
  put_blob(out, record.payload);
}

bool get_record(ByteReader& in, Record& record) {
  return in.get_str(record.key) && in.get_u64(record.timestamp_s) &&
         get_f64(in, record.value) && in.get_u64(record.origin_ns) &&
         in.get_blob(record.payload);
}

Bytes encode_data_frame(const std::vector<Record>& batch) {
  Bytes wire;
  put_u8(wire, static_cast<std::uint8_t>(FrameType::kData));
  put_u32(wire, static_cast<std::uint32_t>(batch.size()));
  for (const Record& record : batch) put_record(wire, record);
  return wire;
}

Bytes encode_watermark_frame(std::uint64_t watermark_s) {
  Bytes wire;
  put_u8(wire, static_cast<std::uint8_t>(FrameType::kWatermark));
  put_u64(wire, watermark_s);
  return wire;
}

Bytes encode_eos_frame() {
  Bytes wire;
  put_u8(wire, static_cast<std::uint8_t>(FrameType::kEos));
  return wire;
}

Bytes encode_credit_frame(std::uint64_t records) {
  Bytes wire;
  put_u8(wire, static_cast<std::uint8_t>(FrameType::kCredit));
  put_u64(wire, records);
  return wire;
}

Result<Frame> decode_frame(ByteView wire) {
  ByteReader r(wire);
  std::uint8_t tag = 0;
  if (!r.get_u8(tag)) return Error::protocol("empty stream frame");
  Frame frame;
  switch (static_cast<FrameType>(tag)) {
    case FrameType::kData: {
      frame.type = FrameType::kData;
      std::uint32_t n = 0;
      if (!r.get_u32(n)) return Error::protocol("data frame missing count");
      // A record takes at least kMinRecordWireBytes, so a larger count is
      // truncated (or corrupt) before anything is allocated for it.
      if (n > r.remaining() / kMinRecordWireBytes) {
        return Error::protocol("data frame truncated: " + std::to_string(n) +
                               " records claimed");
      }
      frame.batch.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!get_record(r, frame.batch[i])) {
          return Error::protocol("data frame truncated at record " + std::to_string(i));
        }
      }
      break;
    }
    case FrameType::kWatermark:
      frame.type = FrameType::kWatermark;
      if (!r.get_u64(frame.watermark_s)) {
        return Error::protocol("watermark frame missing timestamp");
      }
      break;
    case FrameType::kEos:
      frame.type = FrameType::kEos;
      break;
    case FrameType::kCredit:
      frame.type = FrameType::kCredit;
      if (!r.get_u64(frame.credits)) return Error::protocol("credit frame missing count");
      break;
    default:
      return Error::protocol("unknown stream frame tag " + std::to_string(tag));
  }
  if (!r.done()) return Error::protocol("trailing bytes after stream frame");
  return frame;
}

}  // namespace securecloud::streams
