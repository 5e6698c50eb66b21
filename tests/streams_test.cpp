// SecureStreams pipeline tests: wire-format codec, builder typing rules,
// end-to-end delivery through attested enclave stages, credit-based
// backpressure (stalls, zero loss, bounded queues), event-time windowing
// with late-drop accounting, the golden streaming-equals-batch theft
// equivalence, the chaos acceptance property (armed loss/reorder changes
// nothing the protocol promises, bit-identically at any thread count),
// and critical-path attribution of the bottleneck stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/fault_injector.hpp"
#include "common/thread_pool.hpp"
#include "net/fabric.hpp"
#include "smartgrid/streaming_ops.hpp"
#include "smartgrid/theft_detection.hpp"
#include "streams/pipeline.hpp"
#include "streams/record.hpp"

namespace securecloud::streams {
namespace {

using common::FaultArm;
using common::FaultInjector;
using common::FaultKind;

struct Rig {
  SimClock clock;
  net::Fabric fabric{clock};
  sgx::AttestationService service;
};

/// Source over a fixed record vector (shared state survives the copy the
/// builder takes of the callable).
SourceFn vector_source(std::vector<Record> records) {
  auto state = std::make_shared<std::pair<std::vector<Record>, std::size_t>>(
      std::move(records), 0);
  return [state]() -> std::optional<Record> {
    if (state->second >= state->first.size()) return std::nullopt;
    return state->first[state->second++];
  };
}

Record make_record(std::string key, std::uint64_t ts, double value) {
  Record r;
  r.key = std::move(key);
  r.timestamp_s = ts;
  r.value = value;
  return r;
}

// ------------------------------------------------------------- wire format

TEST(StreamRecord, FrameCodecRoundTrips) {
  Record a = make_record("meter-7", 1234, -17.25);
  a.origin_ns = 999;
  a.payload = to_bytes("extra");
  Record b = make_record("", 0, 0.1 + 0.2);  // not exactly representable

  auto data = decode_frame(encode_data_frame({a, b}));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->type, FrameType::kData);
  ASSERT_EQ(data->batch.size(), 2u);
  EXPECT_EQ(data->batch[0], a);  // doubles travel as bit patterns: exact
  EXPECT_EQ(data->batch[1], b);

  auto wm = decode_frame(encode_watermark_frame(86400));
  ASSERT_TRUE(wm.ok());
  EXPECT_EQ(wm->type, FrameType::kWatermark);
  EXPECT_EQ(wm->watermark_s, 86400u);

  auto eos = decode_frame(encode_eos_frame());
  ASSERT_TRUE(eos.ok());
  EXPECT_EQ(eos->type, FrameType::kEos);

  auto credit = decode_frame(encode_credit_frame(48));
  ASSERT_TRUE(credit.ok());
  EXPECT_EQ(credit->type, FrameType::kCredit);
  EXPECT_EQ(credit->credits, 48u);
}

TEST(StreamRecord, DecodeIsStrict) {
  EXPECT_FALSE(decode_frame({}).ok());                    // empty
  EXPECT_FALSE(decode_frame(to_bytes("\x09junk")).ok());  // unknown tag

  Bytes trailing = encode_credit_frame(5);
  trailing.push_back(0x00);  // trailing byte is a typed error, not ignored
  EXPECT_FALSE(decode_frame(trailing).ok());

  Bytes truncated = encode_data_frame({make_record("k", 1, 2.0)});
  truncated.pop_back();
  EXPECT_FALSE(decode_frame(truncated).ok());
}

TEST(StreamRecord, HugeRecordCountIsRejectedBeforeAllocating) {
  // A count far beyond what the remaining bytes could hold (each record
  // takes at least 32 wire bytes) is a typed error, not a ~4G-record
  // allocation.
  Bytes wire = encode_data_frame({make_record("k", 1, 2.0)});
  for (std::size_t i = 1; i <= 4; ++i) wire[i] = 0xFF;
  auto huge = decode_frame(wire);
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.error().message.find("truncated"), std::string::npos)
      << huge.error().message;

  // The bound is exact: an empty record is 32 bytes, so two empty
  // records decode and a count of three over the same bytes does not.
  Bytes two = encode_data_frame({Record{}, Record{}});
  ASSERT_TRUE(decode_frame(two).ok());
  two[1] = 3;  // low byte of the little-endian u32 count after the tag
  EXPECT_FALSE(decode_frame(two).ok());
}

TEST(StreamRecord, FrameFuzzPrefixesAndByteFlips) {
  Record a = make_record("meter-7", 1234, -17.25);
  a.origin_ns = 999;
  a.payload = to_bytes("extra");
  const std::vector<Bytes> wires = {
      encode_data_frame({a, make_record("", 0, 0.5), make_record("m", 9, 1.0)}),
      encode_data_frame({}),
      encode_watermark_frame(86400),
      encode_eos_frame(),
      encode_credit_frame(48),
  };
  for (const Bytes& wire : wires) {
    // Every strict prefix fails with a typed error: frames are
    // self-delimiting, so no prefix is a complete frame.
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
      auto r = decode_frame(prefix);
      ASSERT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
      EXPECT_FALSE(r.error().message.empty());
    }
    // Every single-byte flip either errors or decodes to a frame that
    // re-encodes to exactly the mutated bytes.
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
        Bytes mutated = wire;
        mutated[i] ^= flip;
        auto r = decode_frame(mutated);
        if (!r.ok()) {
          EXPECT_FALSE(r.error().message.empty());
          continue;
        }
        Bytes again;
        switch (r->type) {
          case FrameType::kData: again = encode_data_frame(r->batch); break;
          case FrameType::kWatermark: again = encode_watermark_frame(r->watermark_s); break;
          case FrameType::kEos: again = encode_eos_frame(); break;
          case FrameType::kCredit: again = encode_credit_frame(r->credits); break;
        }
        EXPECT_EQ(again, mutated) << "byte " << i << " flip " << int{flip};
      }
    }
  }
}

// ----------------------------------------------------------------- builder

TEST(StreamPipeline, BuilderRejectsMalformedChains) {
  const auto noop_sink = [](const Record&, std::uint64_t) {};
  const auto empty_source = []() -> std::optional<Record> { return std::nullopt; };

  // Too short: a source alone is not a pipeline.
  EXPECT_FALSE(PipelineBuilder().source("s", empty_source).build().ok());

  // Source must be first, sink must be last.
  EXPECT_FALSE(PipelineBuilder()
                   .sink("out", noop_sink)
                   .source("s", empty_source)
                   .build()
                   .ok());
  EXPECT_FALSE(PipelineBuilder()
                   .source("s", empty_source)
                   .sink("out", noop_sink)
                   .map("m", [](const Record& r) { return r; })
                   .build()
                   .ok());

  // Names become fabric node names: required and unique.
  EXPECT_FALSE(PipelineBuilder()
                   .source("", empty_source)
                   .sink("out", noop_sink)
                   .build()
                   .ok());
  EXPECT_FALSE(PipelineBuilder()
                   .source("x", empty_source)
                   .sink("x", noop_sink)
                   .build()
                   .ok());

  // A stage without its operator function is rejected by kind.
  EXPECT_FALSE(PipelineBuilder()
                   .source("s", empty_source)
                   .map("m", nullptr)
                   .sink("out", noop_sink)
                   .build()
                   .ok());

  auto ok = PipelineBuilder()
                .source("s", empty_source)
                .window("w", {.size_s = 60})
                .sink("out", noop_sink)
                .build();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 3u);
}

// ---------------------------------------------------------------- delivery

TEST(StreamPipeline, DeliversEveryRecordInOrderThroughEnclaveStages) {
  Rig rig;
  std::vector<Record> input;
  for (int i = 0; i < 100; ++i) {
    input.push_back(make_record("k" + std::to_string(i % 5),
                                static_cast<std::uint64_t>(i), i * 1.5));
  }
  std::vector<Record> got;
  auto stages = PipelineBuilder()
                    .source("gen", vector_source(input))
                    .map("double",
                         [](const Record& r) {
                           Record out = r;
                           out.value = r.value * 2;
                           return out;
                         })
                    .filter("evens",
                            [](const Record& r) { return r.timestamp_s % 2 == 0; })
                    .sink("collect",
                          [&](const Record& r, std::uint64_t) { got.push_back(r); })
                    .build();
  ASSERT_TRUE(stages.ok());

  Pipeline pipeline(rig.fabric, std::move(*stages));
  ASSERT_TRUE(pipeline.setup(rig.service).ok());
  ASSERT_TRUE(pipeline.run().ok());

  // Every even-timestamped record arrives, doubled, in source order.
  ASSERT_EQ(got.size(), 50u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].timestamp_s, 2 * i);
    EXPECT_DOUBLE_EQ(got[i].value, static_cast<double>(2 * i) * 1.5 * 2);
    EXPECT_GT(got[i].origin_ns, 0u);  // stamped when the source emitted it
  }

  const PipelineStats stats = pipeline.stats();
  ASSERT_EQ(stats.stages.size(), 4u);
  EXPECT_EQ(stats.records_delivered, 50u);
  EXPECT_EQ(stats.stages[0].records_out, 100u);
  EXPECT_EQ(stats.stages[1].records_in, 100u);
  EXPECT_EQ(stats.stages[1].records_out, 100u);
  EXPECT_EQ(stats.stages[2].records_in, 100u);
  EXPECT_EQ(stats.stages[2].records_out, 50u);  // filter halves the stream
  EXPECT_EQ(stats.stages[3].records_in, 50u);
  EXPECT_GT(stats.stages[0].watermarks, 0u);
  // Everything consumed was granted back upstream by end of stream.
  EXPECT_EQ(stats.stages[1].credits_granted, 100u);
  EXPECT_EQ(stats.stages[3].credits_granted, 50u);
  EXPECT_TRUE(pipeline.health().ok());
  EXPECT_GT(stats.wall_ns, 0u);
}

TEST(StreamPipeline, RunRequiresSetupAndIsSingleShot) {
  Rig rig;
  auto stages = PipelineBuilder()
                    .source("s", vector_source({make_record("k", 1, 1)}))
                    .sink("out", [](const Record&, std::uint64_t) {})
                    .build();
  ASSERT_TRUE(stages.ok());
  Pipeline pipeline(rig.fabric, std::move(*stages));
  EXPECT_FALSE(pipeline.run().ok());  // not set up yet
  ASSERT_TRUE(pipeline.setup(rig.service).ok());
  EXPECT_FALSE(pipeline.setup(rig.service).ok());  // double setup rejected
  ASSERT_TRUE(pipeline.run().ok());
  EXPECT_FALSE(pipeline.run().ok());  // single-shot
}

// ------------------------------------------------------------- windowing

TEST(StreamPipeline, WindowStageClosesOnWatermarksAndFlushesOnEos) {
  Rig rig;
  // Two keys, interleaved, 5 s apart: ts 0,5,...,295. Key "a" gets the
  // multiples of 10, key "b" the rest — 6 readings per key per window.
  std::vector<Record> input;
  double fed = 0;
  for (int i = 0; i < 60; ++i) {
    const double v = 10.0 + i;
    input.push_back(make_record(i % 2 == 0 ? "a" : "b",
                                static_cast<std::uint64_t>(5 * i), v));
    fed += v;
  }
  std::vector<Record> got;
  auto stages = PipelineBuilder()
                    .source("gen", vector_source(input))
                    .window("tumble", {.size_s = 60})
                    .sink("collect",
                          [&](const Record& r, std::uint64_t) { got.push_back(r); })
                    .build();
  ASSERT_TRUE(stages.ok());
  Pipeline pipeline(rig.fabric, std::move(*stages));
  ASSERT_TRUE(pipeline.setup(rig.service).ok());
  ASSERT_TRUE(pipeline.run().ok());

  // 5 windows per key over [0,300); the sink sees only window records.
  ASSERT_EQ(got.size(), 10u);
  double emitted = 0;
  for (const Record& r : got) {
    WindowPayload payload;
    ASSERT_TRUE(get_window_payload(r, payload));
    EXPECT_EQ(payload.window_start_s % 60, 0u);
    EXPECT_EQ(payload.window_end_s, payload.window_start_s + 60);
    EXPECT_EQ(payload.count, 6u);
    EXPECT_DOUBLE_EQ(r.value, payload.sum);
    EXPECT_EQ(r.timestamp_s, payload.window_start_s);
    EXPECT_GT(r.origin_ns, 0u);  // re-stamped at the window-close instant
    emitted += payload.sum;
  }
  // Conservation: every accepted reading lands in exactly one window.
  EXPECT_DOUBLE_EQ(emitted, fed);
  EXPECT_EQ(pipeline.stats().stages[1].late_dropped, 0u);
}

TEST(StreamPipeline, HopelesslyLateRecordsAreCountedNotDelivered) {
  Rig rig;
  // One record far behind the watermark its own batch already advanced:
  // window [0,60) is long closed by the time t=10 is observed.
  std::vector<Record> input = {
      make_record("k", 0, 1),   make_record("k", 100, 2),
      make_record("k", 200, 4), make_record("k", 10, 1000),  // hopeless
      make_record("k", 300, 8),
  };
  std::vector<Record> got;
  auto stages = PipelineBuilder()
                    .source("gen", vector_source(input))
                    .window("tumble", {.size_s = 60})
                    .sink("collect",
                          [&](const Record& r, std::uint64_t) { got.push_back(r); })
                    .build();
  ASSERT_TRUE(stages.ok());
  Pipeline pipeline(rig.fabric, std::move(*stages));
  ASSERT_TRUE(pipeline.setup(rig.service).ok());
  ASSERT_TRUE(pipeline.run().ok());

  // The late record is the *only* sanctioned loss in the whole design,
  // and it is accounted, never silent.
  EXPECT_EQ(pipeline.stats().stages[1].late_dropped, 1u);
  double emitted = 0;
  for (const Record& r : got) emitted += r.value;
  EXPECT_DOUBLE_EQ(emitted, 15);  // 1+2+4+8; the 1000 never appears
}

// ------------------------------------------------------------ backpressure

TEST(StreamPipeline, SlowSinkStallsSourceWithoutDroppingAnything) {
  Rig rig;
  std::vector<Record> input;
  for (int i = 0; i < 400; ++i) {
    input.push_back(make_record("k" + std::to_string(i % 3),
                                static_cast<std::uint64_t>(i), 1.0));
  }
  std::uint64_t delivered = 0;
  auto stages = PipelineBuilder()
                    .source("fast-gen", vector_source(input), 100)
                    .map("relay", [](const Record& r) { return r; }, 100)
                    // Sink is ~3 orders of magnitude slower than the source:
                    // without flow control it would be buried.
                    .sink("slow-sink",
                          [&](const Record&, std::uint64_t) { ++delivered; },
                          100'000)
                    .build();
  ASSERT_TRUE(stages.ok());

  PipelineConfig config;
  config.credit_window = 8;
  config.grant_batch = 4;
  config.batch_size = 4;
  Pipeline pipeline(rig.fabric, std::move(*stages), config);
  ASSERT_TRUE(pipeline.setup(rig.service).ok());
  ASSERT_TRUE(pipeline.run().ok());

  const PipelineStats stats = pipeline.stats();
  // Zero loss is the whole point of credit backpressure.
  EXPECT_EQ(delivered, 400u);
  EXPECT_EQ(stats.records_delivered, 400u);
  // And the producers actually stalled — deterministically, not by luck.
  EXPECT_GE(stats.credit_stalls, 1u);
  EXPECT_GT(stats.stall_ns, 0u);
  EXPECT_GE(stats.stages[1].credit_stalls, 1u);  // the relay hit the wall too
  EXPECT_TRUE(pipeline.health().ok());
}

// ------------------------------------------------- streaming == batch golden

TEST(StreamPipeline, StreamingTheftFlagsEqualBatchDetector) {
  smartgrid::GridConfig grid;
  grid.households = 20;
  grid.feeders = 2;
  grid.interval_s = 300;
  grid.horizon_s = 24 * 3600;
  grid.thefts.push_back(
      {.household = 3, .start_s = 12 * 3600, .reported_fraction = 0.3});
  grid.thefts.push_back(
      {.household = 11, .start_s = 12 * 3600, .reported_fraction = 0.4});
  const smartgrid::MeterFleet fleet(grid, 21);

  // Batch plane: the secure MapReduce theft job.
  sgx::Platform platform;
  crypto::DeterministicEntropy entropy(22);
  smartgrid::TheftDetector detector(platform, entropy);
  smartgrid::TheftDetectionConfig batch_config;
  batch_config.split_s = 12 * 3600;
  auto report = detector.run(batch_config, detector.prepare_partitions(fleet, 4));
  ASSERT_TRUE(report.ok());
  const std::set<std::string> batch_flags(report->flagged.begin(),
                                          report->flagged.end());
  ASSERT_FALSE(batch_flags.empty());

  // Streaming plane: same fleet, same analysis, as pipeline operators.
  // Window size divides split_s, so no window straddles the split.
  Rig rig;
  auto theft = smartgrid::streaming_theft_stage({.split_s = 12 * 3600});
  std::set<std::string> stream_flags;
  auto stages =
      PipelineBuilder()
          .source("meters", smartgrid::meter_stream_source(fleet))
          .window("hourly", {.size_s = 3600})
          .process("theft", theft.process, theft.flush)
          .sink("collect",
                [&](const Record& r, std::uint64_t) {
                  std::string meter;
                  if (smartgrid::is_flag_record(r, meter)) stream_flags.insert(meter);
                })
          .build();
  ASSERT_TRUE(stages.ok());
  Pipeline pipeline(rig.fabric, std::move(*stages));
  ASSERT_TRUE(pipeline.setup(rig.service).ok());
  ASSERT_TRUE(pipeline.run().ok());

  EXPECT_EQ(stream_flags, batch_flags);
  EXPECT_EQ(pipeline.stats().stages[1].late_dropped, 0u);
}

// ------------------------------------------------------------------- chaos

struct ChaosResult {
  PipelineStats stats;
  std::vector<Record> sunk;
  std::string obs_v2;
};

/// What a record promises independent of wall-clock pacing: everything
/// except origin_ns (which is stamped at emission time, and emission
/// *timing* legitimately shifts when faults delay credit grants).
std::vector<std::tuple<std::string, std::uint64_t, double, Bytes>> project(
    const std::vector<Record>& records) {
  std::vector<std::tuple<std::string, std::uint64_t, double, Bytes>> out;
  for (const Record& r : records) {
    out.emplace_back(r.key, r.timestamp_s, r.value, r.payload);
  }
  return out;
}

/// Five stages, every operator kind on the data path, driven over a
/// lossy reordering fabric. Faults are armed only after setup so the
/// chaos hits the data plane, not the attestation handshake.
ChaosResult run_chaos(std::size_t threads, bool faulty) {
  Rig rig;
  std::vector<Record> input;
  for (int i = 0; i < 300; ++i) {
    input.push_back(make_record("s" + std::to_string(i % 7),
                                static_cast<std::uint64_t>(i),
                                0.5 * i + (i % 13)));
  }
  ChaosResult result;
  auto stages =
      PipelineBuilder()
          .source("gen", vector_source(input))
          .key_by("shard",
                  [](const Record& r) {
                    return "g" + std::to_string(r.timestamp_s % 3);
                  })
          .window("tumble", {.size_s = 30})
          .filter("nonempty",
                  [](const Record& r) {
                    WindowPayload p;
                    return get_window_payload(r, p) && p.sum >= 100;
                  })
          .sink("collect",
                [&](const Record& r, std::uint64_t) { result.sunk.push_back(r); })
          .build();
  EXPECT_TRUE(stages.ok());

  PipelineConfig config;
  config.credit_window = 16;
  config.grant_batch = 4;
  config.batch_size = 8;
  Pipeline pipeline(rig.fabric, std::move(*stages), config);
  EXPECT_TRUE(pipeline.setup(rig.service).ok());

  FaultInjector faults(31, &rig.clock);
  if (faulty) {
    rig.fabric.set_fault_injector(&faults);
    faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 0.3, .max_fires = 25});
    faults.arm(FaultKind::kNetReorder,
               FaultArm{.probability = 0.2, .max_fires = 15});
  }

  common::ThreadPool pool(threads);
  pipeline.set_pool(&pool);
  EXPECT_TRUE(pipeline.run().ok());
  EXPECT_TRUE(pipeline.health().ok());

  result.stats = pipeline.stats();
  auto snapshot = pipeline.cluster_snapshot();
  EXPECT_TRUE(snapshot.ok());
  if (snapshot.ok()) result.obs_v2 = snapshot->to_obs_json();
  return result;
}

TEST(StreamPipeline, ChaosIsFaultAndThreadCountInvariant) {
  const ChaosResult clean = run_chaos(1, /*faulty=*/false);
  const ChaosResult faulty_1t = run_chaos(1, /*faulty=*/true);
  const ChaosResult faulty_8t = run_chaos(8, /*faulty=*/true);

  ASSERT_FALSE(clean.sunk.empty());

  // Armed loss/reorder changes nothing the protocol promises: the sink
  // sees the same records in the same order, nothing is lost, nothing is
  // double-delivered. (Timing-derived fields — stalls, wall time,
  // origin_ns stamps — legitimately shift; the data may not.)
  EXPECT_EQ(project(faulty_1t.sunk), project(clean.sunk));
  EXPECT_EQ(faulty_1t.stats.records_delivered, clean.stats.records_delivered);
  for (std::size_t i = 0; i < clean.stats.stages.size(); ++i) {
    EXPECT_EQ(faulty_1t.stats.stages[i].records_in,
              clean.stats.stages[i].records_in);
    EXPECT_EQ(faulty_1t.stats.stages[i].records_out,
              clean.stats.stages[i].records_out);
    EXPECT_EQ(faulty_1t.stats.stages[i].watermarks,
              clean.stats.stages[i].watermarks);
    EXPECT_EQ(faulty_1t.stats.stages[i].credits_granted,
              clean.stats.stages[i].credits_granted);
    EXPECT_EQ(faulty_1t.stats.stages[i].late_dropped,
              clean.stats.stages[i].late_dropped);
  }

  // The faulted run is bit-identical across thread counts: every stat,
  // every origin_ns stamp, every counter in the merged obs v2 export.
  EXPECT_EQ(faulty_8t.stats, faulty_1t.stats);
  EXPECT_EQ(faulty_8t.sunk, faulty_1t.sunk);
  EXPECT_EQ(faulty_8t.obs_v2, faulty_1t.obs_v2);
}

// ----------------------------------------------------------- critical path

TEST(StreamPipeline, CriticalPathNamesTheBottleneckStage) {
  Rig rig;
  rig.fabric.enable_delivery_log();
  std::vector<Record> input;
  for (int i = 0; i < 200; ++i) {
    input.push_back(make_record("k", static_cast<std::uint64_t>(i), 1.0));
  }
  auto stages =
      PipelineBuilder()
          .source("gen", vector_source(input), 200)
          .map("cheap", [](const Record& r) { return r; }, 200)
          // 500x the per-record cost of everything else: the analyzer
          // must charge the chain to this stage.
          .process("detect",
                   [](const Record& r) { return std::vector<Record>{r}; },
                   nullptr, 100'000)
          .sink("out", [](const Record&, std::uint64_t) {}, 200)
          .build();
  ASSERT_TRUE(stages.ok());
  Pipeline pipeline(rig.fabric, std::move(*stages));
  ASSERT_TRUE(pipeline.setup(rig.service).ok());
  ASSERT_TRUE(pipeline.run().ok());

  auto snapshot = pipeline.cluster_snapshot();
  ASSERT_TRUE(snapshot.ok());
  const auto names = rig.fabric.node_names();
  obs::CriticalPathOptions opts;
  opts.deliveries = &rig.fabric.deliveries();
  opts.node_names = &names;
  auto report = obs::critical_path(*snapshot, opts);
  ASSERT_TRUE(report.ok());
  // Stage names are fabric node names are span node labels — so the
  // dominant node of the pipeline trace IS the bottleneck stage.
  EXPECT_EQ(report->dominant_node, "detect");
  EXPECT_GT(report->total_cycles, 0u);
}

// ------------------------------------------------------------- TSan hammer

// Fast producer, slow sink, shared registry, pool workers on the pure
// stages: the configuration scripts/tsan_check.sh drives under TSan to
// prove the only cross-thread traffic is the pool's pre-assigned slots
// and relaxed counter bumps.
TEST(StreamsHammer, BackpressureUnderPoolAndSharedRegistry) {
  Rig rig;
  std::vector<Record> input;
  for (int i = 0; i < 600; ++i) {
    input.push_back(make_record("k" + std::to_string(i % 11),
                                static_cast<std::uint64_t>(i), 1.0 * i));
  }
  std::uint64_t delivered = 0;
  auto stages = PipelineBuilder()
                    .source("gen", vector_source(input), 100)
                    .map("scale",
                         [](const Record& r) {
                           Record out = r;
                           out.value *= 3;
                           return out;
                         },
                         100)
                    .filter("keep-two-thirds",
                            [](const Record& r) { return r.timestamp_s % 3 != 0; },
                            100)
                    .sink("slow-sink",
                          [&](const Record&, std::uint64_t) { ++delivered; },
                          50'000)
                    .build();
  ASSERT_TRUE(stages.ok());

  PipelineConfig config;
  config.credit_window = 8;
  config.grant_batch = 4;
  config.batch_size = 4;
  Pipeline pipeline(rig.fabric, std::move(*stages), config);
  obs::Registry registry;
  pipeline.set_obs(&registry);
  common::ThreadPool pool(8);
  pipeline.set_pool(&pool);
  ASSERT_TRUE(pipeline.setup(rig.service).ok());
  ASSERT_TRUE(pipeline.run().ok());

  EXPECT_EQ(delivered, 400u);  // every surviving record, zero loss
  EXPECT_GE(registry.counter("streams_credit_stalls_total").value(), 1u);
  EXPECT_EQ(registry.counter("streams_records_in_total").value(),
            600u + 600u + 400u);  // map + filter + sink arrivals
  EXPECT_TRUE(pipeline.health().ok());
}

}  // namespace
}  // namespace securecloud::streams
