// City-scale SecureStreams: smart-grid telemetry through an enclave
// pipeline.
//
// Synthesizes a metropolitan meter fleet (default 100k meters, 24 ticks
// each — ~2.4M readings) and streams it through a five-stage pipeline —
//   meters -> window -> theft -> billing -> sink
// — every stage its own attested enclave on a fabric node, inter-stage
// traffic sealed through FlowNodes, flow controlled by credit
// backpressure. The sink is deliberately the slowest stage, so the bench
// exercises the stall path under sustained load: the source must pause
// (never drop) while grants propagate back up the chain.
//
// Reports, as JSON lines:
//   * streams_pipeline — sustained records/s (wall and simulated), p50/
//     p99 window-close-to-sink latency, backpressure stall ratio,
//     per-stage record counts, theft flags found vs injected;
//   * securecloud.trace.v2 + securecloud.critical_path.v1 — the merged
//     pipeline trace; the critical path names the bottleneck stage, and
//     critical_path_steps_per_sec is the analyzer's own rate;
//   * securecloud.bench.v1 (last line, CI-validated schema).
//
// Flags: --meters N (default 100'000), --threads N (pool for the pure
// stages, default 8), --smoke (5'000 meters, same output shape).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/thread_pool.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "sgx/attestation.hpp"
#include "smartgrid/streaming_ops.hpp"
#include "streams/pipeline.hpp"

namespace {

using namespace securecloud;

std::size_t g_meters = 100'000;
int g_threads = 8;
bool g_smoke = false;

// A 4-hour horizon at 10-minute ticks: 24 readings per meter. Window and
// split chosen so the window size divides the split — the invariant the
// streaming theft stage needs to match the batch analysis exactly.
constexpr std::uint64_t kHorizonS = 4 * 3600;
constexpr std::uint64_t kIntervalS = 600;
constexpr std::uint64_t kWindowS = 1800;
constexpr std::uint64_t kSplitS = 2 * 3600;
constexpr std::size_t kTheftEvery = 1000;  // every 1000th meter is dishonest

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Deterministic city-scale telemetry, generated on the fly (a
/// materialized MeterFleet at 1M meters would dwarf the pipeline under
/// test). Diurnal-ish load per meter; every kTheftEvery-th meter reports
/// 30% of its true usage from kSplitS on. Time-major: all meters at tick
/// t, then t+1 — nondecreasing event time, as the source contract asks.
streams::SourceFn city_source(std::size_t meters) {
  struct State {
    std::size_t meters = 0;
    std::uint64_t tick = 0;
    std::size_t meter = 0;
  };
  auto state = std::make_shared<State>();
  state->meters = meters;
  return [state]() -> std::optional<streams::Record> {
    if (state->tick >= kHorizonS / kIntervalS) return std::nullopt;
    const std::uint64_t t = state->tick * kIntervalS;
    const std::size_t m = state->meter;
    if (++state->meter >= state->meters) {
      state->meter = 0;
      ++state->tick;
    }
    // Base load scaled per meter plus a coarse daily swing; cheap and
    // fully deterministic, so reruns are comparable.
    const double scale = 0.5 + static_cast<double>(m % 97) / 97.0;
    const double swing =
        1.0 + 0.5 * static_cast<double>((t / 3600) % 12) / 12.0;
    double power_w = 400.0 * scale * swing + static_cast<double>((m * 31 + t) % 50);
    const bool thief = (m % kTheftEvery) == kTheftEvery - 1;
    if (thief && t >= kSplitS) power_w *= 0.3;
    streams::Record r;
    r.key = "m" + std::to_string(m);
    r.timestamp_s = t;
    r.value = power_w;
    return r;
  };
}

void bench_streams() {
  const std::size_t meters = g_smoke ? 5'000 : g_meters;
  const std::size_t total_records = meters * (kHorizonS / kIntervalS);
  const std::size_t injected_thieves = meters / kTheftEvery;

  SimClock clock;
  net::Fabric fabric(clock);
  fabric.enable_delivery_log();
  sgx::AttestationService service;

  auto theft = smartgrid::streaming_theft_stage(
      {.split_s = kSplitS, .ratio_threshold = 0.65});
  auto billing = smartgrid::streaming_billing_stage({});

  std::size_t flags = 0, bills = 0;
  obs::Histogram window_latency_ns;
  auto stages =
      streams::PipelineBuilder()
          .source("meters", city_source(meters), 200)
          .window("window", {.size_s = kWindowS}, 500)
          .process("theft", theft.process, theft.flush, 500)
          .process("billing", billing.process, billing.flush, 500)
          // The sink prices out slowest, so sustained load must engage
          // credit backpressure all the way back to the source.
          .sink("sink",
                [&](const streams::Record& r, std::uint64_t now_ns) {
                  std::string meter;
                  if (smartgrid::is_flag_record(r, meter)) {
                    ++flags;
                  } else if (smartgrid::is_bill_record(r, meter)) {
                    ++bills;
                  } else {
                    window_latency_ns.observe(now_ns - r.origin_ns);
                  }
                },
                2'500)
          .build();
  if (!stages.ok()) {
    std::printf("{\"bench\":\"streams_pipeline\",\"error\":\"%s\"}\n",
                stages.error().message.c_str());
    return;
  }

  streams::PipelineConfig config;
  config.credit_window = 256;
  config.grant_batch = 64;
  config.batch_size = 64;
  config.watermark_interval_s = kIntervalS;
  streams::Pipeline pipeline(fabric, std::move(*stages), config);
  common::ThreadPool pool(static_cast<std::size_t>(g_threads < 1 ? 1 : g_threads));
  pipeline.set_pool(&pool);
  if (Status s = pipeline.setup(service); !s.ok()) {
    std::printf("{\"bench\":\"streams_pipeline\",\"error\":\"%s\"}\n",
                s.error().message.c_str());
    return;
  }

  bool run_ok = true;
  const double secs = wall_seconds([&] { run_ok = pipeline.run().ok(); });
  if (!run_ok || !pipeline.health().ok()) {
    std::printf("{\"bench\":\"streams_pipeline\",\"error\":\"run failed\"}\n");
    return;
  }

  const streams::PipelineStats stats = pipeline.stats();
  const auto p50_ns =
      static_cast<std::uint64_t>(window_latency_ns.quantile(0.50));
  const auto p99_ns =
      static_cast<std::uint64_t>(window_latency_ns.quantile(0.99));
  // How much of the stream's lifetime producers spent stalled on
  // credits, normalized per stage-that-can-stall.
  const double stall_ratio =
      stats.wall_ns == 0
          ? 0
          : static_cast<double>(stats.stall_ns) /
                (static_cast<double>(stats.wall_ns) *
                 static_cast<double>(stats.stages.size() - 1));
  const double sim_secs = static_cast<double>(stats.wall_ns) / 1e9;

  std::printf(
      "{\"bench\":\"streams_pipeline\",\"meters\":%zu,\"stages\":%zu,"
      "\"records\":%zu,\"seconds\":%.3f,\"records_per_sec\":%.0f,"
      "\"sim_seconds\":%.3f,\"sim_records_per_sec\":%.0f,"
      "\"windows\":%zu,\"window_latency_p50_us\":%.1f,"
      "\"window_latency_p99_us\":%.1f,\"credit_stalls\":%llu,"
      "\"stall_ratio\":%.4f,\"late_dropped\":%llu,"
      "\"flags\":%zu,\"thieves_injected\":%zu,\"bills\":%zu}\n",
      meters, stats.stages.size(), total_records, secs,
      static_cast<double>(total_records) / secs, sim_secs,
      sim_secs == 0 ? 0 : static_cast<double>(total_records) / sim_secs,
      static_cast<std::size_t>(window_latency_ns.count()),
      static_cast<double>(p50_ns) / 1e3,
      static_cast<double>(p99_ns) / 1e3,
      static_cast<unsigned long long>(stats.credit_stalls), stall_ratio,
      static_cast<unsigned long long>(stats.stages[1].late_dropped), flags,
      injected_thieves, bills);

  // Critical path over the merged pipeline trace: at city scale the full
  // span dump is megabytes, so print the verdict, not the chain — which
  // stage dominates the pipeline's wall time, and by how much.
  if (auto snapshot = pipeline.cluster_snapshot(); snapshot.ok()) {
    const std::vector<std::string> names = fabric.node_names();
    obs::CriticalPathOptions opts;
    opts.deliveries = &fabric.deliveries();
    opts.node_names = &names;
    // Analyzer rate: chain steps per wall second, best of 10 (a return to
    // per-step scans of the delivery log shows up as a collapsing rate).
    // Three trials of the ~2 ms smoke chain still spread by a quarter on
    // a busy host, wider than the 10% perf-compare gate.
    Result<obs::CriticalPathReport> report = Error::internal("unset");
    double best_s = 0;
    for (int trial = 0; trial < 10; ++trial) {
      const double s = wall_seconds([&] { report = obs::critical_path(*snapshot, opts); });
      if (trial == 0 || s < best_s) best_s = s;
    }
    if (report.ok()) {
      std::string per_stage;
      for (const auto& [node, cycles] : report->node_self_cycles) {
        per_stage += (per_stage.empty() ? "" : ",") + ("\"" + node + "\":" +
                                                       std::to_string(cycles));
      }
      std::printf(
          "{\"bench\":\"streams_critical_path\",\"dominant_stage\":\"%s\","
          "\"total_cycles\":%llu,\"link_cycles\":%llu,\"steps\":%zu,"
          "\"critical_path_steps_per_sec\":%.0f,\"stage_self_cycles\":{%s}}\n",
          report->dominant_node.c_str(),
          static_cast<unsigned long long>(report->total_cycles),
          static_cast<unsigned long long>(report->link_cycles_total),
          report->steps.size(),
          best_s > 0 ? static_cast<double>(report->steps.size()) / best_s : 0.0,
          per_stage.c_str());
    }
  }

  // Driver-side registry for the CI-validated bench record: totals from
  // the pipeline's own stats (per-stage registries stay per-stage).
  obs::Registry registry;
  std::uint64_t records_in = 0, records_out = 0, grants = 0;
  for (const auto& stage : stats.stages) {
    records_in += stage.records_in;
    records_out += stage.records_out;
    grants += stage.credits_granted;
  }
  registry.counter("streams_records_in_total").inc(records_in);
  registry.counter("streams_records_out_total").inc(records_out);
  registry.counter("streams_credits_granted_total").inc(grants);
  registry.counter("streams_credit_stalls_total").inc(stats.credit_stalls);
  registry.counter("streams_stall_ns_total").inc(stats.stall_ns);
  registry.counter("streams_records_delivered_total").inc(stats.records_delivered);
  registry.gauge("streams_meters").set(static_cast<std::int64_t>(meters));
  registry.gauge("streams_window_latency_p50_ns").set(
      static_cast<std::int64_t>(p50_ns));
  registry.gauge("streams_window_latency_p99_ns").set(
      static_cast<std::int64_t>(p99_ns));
  registry.gauge("streams_stall_ppm").set(
      static_cast<std::int64_t>(stall_ratio * 1e6));
  benchutil::emit_bench_json("streams", static_cast<std::size_t>(g_threads),
                             registry);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_threads = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      g_threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--meters") == 0 && i + 1 < argc) {
      g_meters = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strncmp(argv[i], "--meters=", 9) == 0) {
      g_meters = static_cast<std::size_t>(std::atoll(argv[i] + 9));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    }
  }
  bench_streams();
  return 0;
}
