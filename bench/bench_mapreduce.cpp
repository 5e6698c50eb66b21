// Supporting benchmark — end-to-end secure big-data processing.
//
// Runs the smart-grid theft-detection job (SVI use case 1) as a secure
// map/reduce over encrypted readings and compares against a plaintext
// baseline performing the identical aggregation without enclaves or
// crypto — quantifying what "secure" costs at the application level.
// Also reports the transfer codec's effect on shuffle volume.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>

#include "bench_json.hpp"
#include "bigdata/transfer.hpp"
#include "common/thread_pool.hpp"
#include "smartgrid/theft_detection.hpp"

namespace {

using namespace securecloud;
using namespace securecloud::smartgrid;

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Seconds per call of `fn`: the best of 5 trials, each repeating it for
/// at least 20 ms, so a gated rate does not swing with one slow call.
double best_seconds_per_call(const std::function<void()>& fn) {
  double best = 1e30;
  for (int trial = 0; trial < 5; ++trial) {
    std::size_t calls = 0;
    double elapsed = 0;
    const auto start = std::chrono::steady_clock::now();
    do {
      fn();
      ++calls;
      elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (elapsed < 0.02);
    best = std::min(best, elapsed / static_cast<double>(calls));
  }
  return best;
}

struct CodecTiming {
  double compress_s = 0;
  double decompress_s = 0;
};

/// Times rle_compress and rle_decompress over `data` in 64 KiB slices,
/// about one DMR map task's payload each; rates are in uncompressed
/// bytes. The slices also keep every output below malloc's mmap
/// threshold, so fresh-page faults do not swamp the codec's own time.
CodecTiming time_rle(const Bytes& data) {
  constexpr std::size_t kSlice = 64 * 1024;
  std::vector<ByteView> slices;
  std::vector<Bytes> wires;
  for (std::size_t offset = 0; offset < data.size(); offset += kSlice) {
    slices.push_back(ByteView(data).subspan(offset, std::min(kSlice, data.size() - offset)));
    wires.push_back(bigdata::rle_compress(slices.back()));
    const auto back = bigdata::rle_decompress(wires.back());
    if (!back.ok() || !std::equal(back->begin(), back->end(), slices.back().begin(),
                                  slices.back().end())) {
      std::printf("RLE round trip failed\n");
      std::exit(1);
    }
  }
  std::size_t sink = 0;
  CodecTiming t;
  t.compress_s = best_seconds_per_call([&] {
    for (const ByteView slice : slices) sink += bigdata::rle_compress(slice).size();
  });
  t.decompress_s = best_seconds_per_call([&] {
    for (const Bytes& wire : wires) sink += bigdata::rle_decompress(wire)->size();
  });
  if (sink == 0) std::printf("(empty codec input)\n");
  return t;
}

/// Plaintext baseline: identical per-meter two-window aggregation, no
/// enclaves, no encryption.
std::size_t plain_baseline(const MeterFleet& fleet, std::uint64_t split_s,
                           double threshold) {
  struct Agg {
    double base_sum = 0, base_n = 0, recent_sum = 0, recent_n = 0;
  };
  std::map<std::string, Agg> by_meter;
  for (std::size_t h = 0; h < fleet.config().households; ++h) {
    for (const auto& r : fleet.household_series(h)) {
      Agg& agg = by_meter[r.meter_id];
      if (r.timestamp_s < split_s) {
        agg.base_sum += r.power_w;
        agg.base_n += 1;
      } else {
        agg.recent_sum += r.power_w;
        agg.recent_n += 1;
      }
    }
  }
  std::size_t flagged = 0;
  for (const auto& [meter, agg] : by_meter) {
    const double ratio =
        (agg.recent_sum / agg.recent_n) / (agg.base_sum / agg.base_n);
    if (ratio < threshold) ++flagged;
  }
  return flagged;
}

}  // namespace

int main(int argc, char** argv) {
  // --threads N fans map/reduce tasks and bulk seals across a
  // work-stealing pool; outputs and JobStats stay identical.
  // --smoke shrinks the sweep to one small job (the CI sanity run).
  std::size_t threads = 1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<std::size_t>(std::strtoul(argv[i] + 10, nullptr, 10));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (threads == 0) threads = 1;
  std::unique_ptr<common::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<common::ThreadPool>(threads);

  obs::Registry registry;

  std::printf("=== Secure map/reduce: theft detection over encrypted readings ===\n");
  std::printf("(threads=%zu)\n\n", threads);

  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{50} : std::vector<std::size_t>{50, 200, 500};
  // Summed over the sweep for the gated secure_records_per_sec rate.
  double secure_records = 0, secure_seconds = 0;
  // The first job's sealed records as a DMR map task carries them
  // (length-prefixed), for the codec rates below.
  Bytes sealed_records;
  for (const std::size_t households : sweep) {
    GridConfig grid;
    grid.households = households;
    grid.interval_s = 120;  // 2-minute readings over 24h
    grid.thefts.push_back({.household = 7, .start_s = 12 * 3600, .reported_fraction = 0.3});
    const MeterFleet fleet(grid, 42);
    const std::size_t records =
        households * (grid.horizon_s / grid.interval_s);

    sgx::Platform platform;
    crypto::DeterministicEntropy entropy(5);
    TheftDetector detector(platform, entropy);
    detector.set_pool(pool.get());
    detector.set_obs(&registry);
    platform.set_obs(&registry);

    std::vector<std::vector<Bytes>> partitions;
    const double prep_s = wall_seconds(
        [&] { partitions = detector.prepare_partitions(fleet, 8); });
    if (sealed_records.empty()) {
      for (const auto& partition : partitions) {
        for (const Bytes& record : partition) put_blob(sealed_records, record);
      }
    }

    TheftDetectionConfig config;
    config.job.num_mappers = 8;
    config.job.num_reducers = 4;
    Result<TheftReport> report = Error::internal("unset");
    const double secure_s = wall_seconds([&] { report = detector.run(config, partitions); });
    if (!report.ok()) {
      std::printf("job failed: %s\n", report.error().message.c_str());
      return 1;
    }
    secure_records += static_cast<double>(records);
    secure_seconds += secure_s;

    // Combiner ablation: same job with map-side combining.
    sgx::Platform platform2;
    crypto::DeterministicEntropy entropy2(5);
    TheftDetector detector2(platform2, entropy2);
    detector2.set_pool(pool.get());
    auto partitions2 = detector2.prepare_partitions(fleet, 8);
    TheftDetectionConfig combined_config = config;
    combined_config.job.enable_combiner = true;
    auto combined = detector2.run(combined_config, partitions2);

    std::size_t plain_flagged = 0;
    const double plain_s = wall_seconds(
        [&] { plain_flagged = plain_baseline(fleet, config.split_s, config.ratio_threshold); });

    std::printf("households=%zu records=%zu\n", households, records);
    std::printf("  encrypt+partition: %.2fs (%.0f rec/s)\n", prep_s,
                static_cast<double>(records) / prep_s);
    std::printf("  secure job:        %.2fs (%.0f rec/s), flagged=%zu\n", secure_s,
                static_cast<double>(records) / secure_s, report->flagged.size());
    std::printf("  plain baseline:    %.2fs (%.0f rec/s), flagged=%zu\n", plain_s,
                static_cast<double>(records) / plain_s, plain_flagged);
    std::printf("  secure/plain slowdown: %.1fx\n", secure_s / plain_s);
    std::printf("  shuffle: %zu bytes encrypted, %llu enclave transitions, %.2fms sim time\n",
                report->job_stats.shuffle_bytes,
                static_cast<unsigned long long>(report->job_stats.enclave_transitions),
                static_cast<double>(report->job_stats.simulated_cycles) / 2.6e6);
    if (combined.ok()) {
      std::printf("  with map-side combiner: shuffle %zu bytes (%.1fx less), flagged=%zu\n\n",
                  combined->job_stats.shuffle_bytes,
                  static_cast<double>(report->job_stats.shuffle_bytes) /
                      static_cast<double>(combined->job_stats.shuffle_bytes),
                  combined->flagged.size());
    }
  }

  // --- transfer codec on meter telemetry --------------------------------------
  std::printf("=== Bulk transfer: delta+varint / RLE + AES-GCM on meter series ===\n");
  GridConfig grid;
  grid.households = 20;
  grid.interval_s = 30;
  const MeterFleet fleet(grid, 9);

  // Integer series codec on quantized power readings.
  std::vector<std::int64_t> series;
  for (std::size_t h = 0; h < grid.households; ++h) {
    for (const auto& r : fleet.household_series(h)) {
      series.push_back(static_cast<std::int64_t>(r.power_w * 10));
    }
  }
  const Bytes encoded = bigdata::encode_series(series);
  std::printf("series codec: %zu samples, %zu raw bytes -> %zu encoded (%.1fx)\n",
              series.size(), series.size() * 8, encoded.size(),
              static_cast<double>(series.size() * 8) / static_cast<double>(encoded.size()));

  // Chunked secure transfer of the serialized batch.
  Bytes batch;
  for (std::size_t h = 0; h < grid.households; ++h) {
    for (const auto& r : fleet.household_series(h)) append(batch, r.serialize());
  }
  bigdata::SecureTransferSender sender(Bytes(16, 0x31), 1);
  sender.set_pool(pool.get());
  sender.set_obs(&registry);
  const auto chunks = sender.send(batch);
  std::printf("secure transfer: %zu plaintext bytes -> %zu wire bytes in %zu chunks "
              "(compression %.2fx)\n",
              sender.stats().plaintext_bytes, sender.stats().wire_bytes, chunks.size(),
              sender.stats().compression_ratio());

  // Flow codec rates: sealed records barely compress (literal scans), the
  // meter batch is run-heavy (repeat scans). The gated rates cover both.
  const CodecTiming sealed_t = time_rle(sealed_records);
  const CodecTiming batch_t = time_rle(batch);
  const auto mb_per_s = [](std::size_t bytes, double s) {
    return static_cast<double>(bytes) / s / 1e6;
  };
  std::printf("RLE sealed records (%zu B): compress %.0f MB/s, decompress %.0f MB/s\n",
              sealed_records.size(), mb_per_s(sealed_records.size(), sealed_t.compress_s),
              mb_per_s(sealed_records.size(), sealed_t.decompress_s));
  std::printf("RLE meter batch (%zu B):    compress %.0f MB/s, decompress %.0f MB/s\n",
              batch.size(), mb_per_s(batch.size(), batch_t.compress_s),
              mb_per_s(batch.size(), batch_t.decompress_s));
  const double codec_bytes = static_cast<double>(sealed_records.size() + batch.size());

  char rate[192];
  std::snprintf(rate, sizeof rate,
                "\"secure_records_per_sec\":%.0f,\"rle_compress_bytes_per_sec\":%.0f,"
                "\"rle_decompress_bytes_per_sec\":%.0f",
                secure_records / secure_seconds,
                codec_bytes / (sealed_t.compress_s + batch_t.compress_s),
                codec_bytes / (sealed_t.decompress_s + batch_t.decompress_s));
  benchutil::emit_bench_json("mapreduce", threads, registry, rate);
  return 0;
}
