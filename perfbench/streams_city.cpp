// Workload `streams_city`: the SecureStreams city pipeline
//   meters -> validate -> window -> theft -> billing -> sink
// over a seeded city fleet, with the slow sink of bench_streams so credit
// backpressure reaches the source (closed loop: the source is pulled
// only as credits allow). `validate` is a pure map, the pipeline's one
// stage the pool runs in parallel, so the pool-1 reference and the
// pool-N runs execute different schedules. Per-chunk costs dominate:
// many small sealed flow chunks, a busy fabric event loop, operator
// compute, and the obs critical path over the merged trace. No bulk
// seals, no SCBR.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <set>

#include "common/thread_pool.hpp"
#include "ledger.hpp"
#include "net/fabric.hpp"
#include "obs/cluster.hpp"
#include "sgx/attestation.hpp"
#include "smartgrid/streaming_ops.hpp"
#include "streams/pipeline.hpp"

namespace perfbench {
namespace {

using namespace securecloud;

// Four hours at 10-minute ticks, 30-minute windows; the window divides
// the theft split, so streamed flags equal the batch analysis.
constexpr std::uint64_t kIntervalS = 600;
constexpr std::uint64_t kTicks = 24;
constexpr std::uint64_t kWindowS = 1800;
constexpr std::uint64_t kWindows = kTicks * kIntervalS / kWindowS;
constexpr std::uint64_t kSplitS = 7200;
constexpr std::size_t kTheftEvery = 250;
constexpr std::size_t kMeters = 2000;
constexpr double kMaxReadingW = 20'000.0;
const char* const kStageNames[] = {"meters", "validate", "window", "theft", "billing", "sink"};
constexpr std::size_t kWindowStage = 2;

/// The ingest check on every reading before windowing: a power that is
/// not finite or lies outside [0, kMaxReadingW] is clamped into range,
/// and the value is rounded to the meters' 0.1 W resolution.
double validated(double w) {
  if (!std::isfinite(w)) return 0.0;
  return std::round(std::clamp(w, 0.0, kMaxReadingW) * 10.0) / 10.0;
}

/// The seeded fleet: every reading is a pure function of (seed, meter,
/// tick). Honest meters draw more in the recent half; every
/// kTheftEvery-th meter (seeded offset) reports 30% of its use from
/// kSplitS on.
struct City {
  std::uint64_t seed = 1;
  std::size_t meters = kMeters;
  std::size_t thief_offset = 0;

  bool thief(std::size_t m) const { return (m + thief_offset) % kTheftEvery == 0; }
  double power(std::size_t m, std::uint64_t tick) const {
    const std::uint64_t t = tick * kIntervalS;
    const double scale = 0.5 + unit(seed, m);
    const double swing = 1.0 + 0.5 * static_cast<double>((t / 3600) % 12) / 12.0;
    double w = 400.0 * scale * swing + 50.0 * unit(seed, m, tick + 1);
    if (thief(m) && t >= kSplitS) w *= 0.3;
    return w;
  }
};

/// What the plain computation produces and the oracle expects.
struct Expected {
  std::vector<double> window_sum;  // [meter * kWindows + window]
  std::set<std::size_t> thieves;
  std::size_t bills = 0;
};

/// Plain single-threaded computation of the same outputs from the same
/// readings: validation, window sums, then the theft ratio test, then
/// one bill per meter. It is both the secure-vs-plain baseline and the oracle.
Expected plain_city(const City& city) {
  Expected e;
  e.window_sum.assign(city.meters * kWindows, 0.0);
  for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
    const std::uint64_t w = tick * kIntervalS / kWindowS;
    for (std::size_t m = 0; m < city.meters; ++m) {
      e.window_sum[m * kWindows + w] += validated(city.power(m, tick));
    }
  }
  const std::uint64_t split_window = kSplitS / kWindowS;
  for (std::size_t m = 0; m < city.meters; ++m) {
    double base = 0, recent = 0;
    for (std::uint64_t w = 0; w < kWindows; ++w) {
      (w < split_window ? base : recent) += e.window_sum[m * kWindows + w];
    }
    // Equal reading counts on both sides: the ratio of sums is the
    // ratio of means.
    if (base > 0 && recent / base < 0.65) e.thieves.insert(m);
  }
  e.bills = city.meters;
  return e;
}

struct RunResult {
  bool ok = false;
  std::string error;
  // Normalized to the reference host speed (see Section).
  double setup_s = 0, run_s = 0, report_s = 0, p50_ms = 0, p99_ms = 0;
  // As measured.
  double run_raw_s = 0, snapshot_s = 0, critical_path_s = 0, export_s = 0, plain_s = 0;
  double critical_path_steps = 0, export_bytes = 0, deliveries_logged = 0;
  std::size_t samples = 0;
  std::uint64_t digest = 0;
  double sim_rps = 0, sim_p99_us = 0;
  streams::PipelineStats stats;
  Counters counters;
  std::uint64_t checked = 0, mismatched = 0;
};

std::size_t meter_index(const std::string& key) {
  std::size_t m = 0;
  std::from_chars(key.data() + 1, key.data() + key.size(), m);
  return m;
}

RunResult run_once(const City& city, const Expected& expected, common::ThreadPool& pool,
                   bool with_report, std::uint64_t trace_id) {
  RunResult out;
  Ledger& ledger = Ledger::get();
  ledger.set_context(trace_id, 0);
  const std::size_t records = city.meters * kTicks;

  // Source: time-major, so event time never decreases. Stamps the wall
  // time each reading is generated; the last stamp of a (meter, window)
  // is the creation of the last reading its result depends on.
  std::vector<std::uint64_t> stamp(city.meters * kWindows, 0);
  std::size_t next = 0;
  auto source = [&]() -> std::optional<streams::Record> {
    return ledger.timed_op(Op::kSource, [&]() -> std::optional<streams::Record> {
      if (next >= records) return std::nullopt;
      const std::uint64_t tick = next / city.meters;
      const std::size_t m = next % city.meters;
      ++next;
      streams::Record r;
      r.key = "m" + std::to_string(m);
      r.timestamp_s = tick * kIntervalS;
      r.value = city.power(m, tick);
      stamp[m * kWindows + r.timestamp_s / kWindowS] = now_ns();
      return r;
    });
  };

  // Runs on pool threads.
  auto validate = [&ledger](const streams::Record& r) {
    return ledger.timed_op(Op::kValidate, [&] {
      streams::Record out = r;
      out.value = validated(r.value);
      return out;
    });
  };
  auto theft = smartgrid::streaming_theft_stage({.split_s = kSplitS, .ratio_threshold = 0.65});
  auto billing = smartgrid::streaming_billing_stage({});
  auto theft_fn = [&](const streams::Record& r) {
    return ledger.timed_op(Op::kTheft, [&] { return theft.process(r); });
  };
  auto billing_fn = [&](const streams::Record& r) {
    return ledger.timed_op(Op::kBilling, [&] { return billing.process(r); });
  };

  std::vector<double> received(city.meters * kWindows, -1.0);
  std::set<std::size_t> flagged;
  std::size_t bills = 0, duplicates = 0;
  std::vector<double> latency_ms, sim_latency_us;
  Digest digest;
  auto sink = [&](const streams::Record& r, std::uint64_t sim_now_ns) {
    ledger.timed_op(Op::kSink, [&] {
      const std::uint64_t wall = now_ns();
      digest.add(r.key);
      digest.add_u64(r.timestamp_s);
      digest.add_double(r.value);
      std::string meter;
      streams::WindowPayload window;
      if (smartgrid::is_flag_record(r, meter)) {
        duplicates += flagged.insert(meter_index(meter)).second ? 0 : 1;
      } else if (smartgrid::is_bill_record(r, meter)) {
        ++bills;
      } else if (streams::get_window_payload(r, window)) {
        const std::size_t slot = meter_index(r.key) * kWindows + window.window_start_s / kWindowS;
        if (slot >= received.size() || received[slot] >= 0) {
          ++duplicates;
          return;
        }
        received[slot] = window.sum;
        latency_ms.push_back(static_cast<double>(wall - stamp[slot]) / 1e6);
        sim_latency_us.push_back(static_cast<double>(sim_now_ns - r.origin_ns) / 1e3);
      }
    });
  };

  auto stages = streams::PipelineBuilder()
                    .source(kStageNames[0], source, 200)
                    .map(kStageNames[1], validate, 200)
                    .window(kStageNames[kWindowStage], {.size_s = kWindowS}, 500)
                    .process(kStageNames[3], theft_fn, theft.flush, 500)
                    .process(kStageNames[4], billing_fn, billing.flush, 500)
                    // The slowest stage, so credit backpressure reaches the source.
                    .sink(kStageNames[5], sink, 2'500)
                    .build();
  if (!stages.ok()) {
    out.error = stages.error().message;
    return out;
  }

  SimClock clock;
  net::Fabric fabric(clock);
  fabric.enable_delivery_log();
  sgx::AttestationService service;
  streams::PipelineConfig config;
  config.credit_window = 256;
  config.grant_batch = 64;
  config.batch_size = 64;
  config.watermark_interval_s = kIntervalS;
  streams::Pipeline pipeline(fabric, std::move(*stages), config);
  pipeline.set_pool(&pool);

  Status status;
  {
    Section timing;
    {
      Span span("setup");
      status = pipeline.setup(service);
    }
    out.setup_s = timing.stop();
  }
  if (!status.ok()) {
    out.error = "setup: " + status.error().message;
    return out;
  }
  {
    Section timing;
    {
      Span span("run");
      ledger.set_context(trace_id, span.id());
      status = pipeline.run();
      ledger.set_context(trace_id, 0);
    }
    out.run_s = timing.stop();
    out.run_raw_s = timing.raw_s();
  }
  if (!status.ok() || !pipeline.health().ok()) {
    out.error = "run: " + (status.ok() ? pipeline.health().error().message
                                       : status.error().message);
    return out;
  }
  {
    // The plain baseline, timed right after the run so both see the
    // same host speed.
    Span span("plain");
    std::vector<double> plain;
    for (int i = 0; i < 15; ++i) {
      const std::uint64_t p0 = now_ns();
      const Expected again = plain_city(city);
      plain.push_back(seconds_between(p0, now_ns()));
    }
    out.plain_s = median(plain);
  }
  // Latencies fall inside the run, so they take its speed factor.
  const double factor = out.run_s / out.run_raw_s;
  out.samples = latency_ms.size();
  out.p50_ms = quantile(latency_ms, 0.50) * factor;
  out.p99_ms = quantile(latency_ms, 0.99) * factor;
  out.stats = pipeline.stats();
  std::vector<const obs::NodeObs*> nodes;
  for (std::size_t i = 0; i < pipeline.stage_count(); ++i) nodes.push_back(pipeline.stage_obs(i));
  out.counters = collect_counters(nodes, fabric.stats());
  out.digest = digest.value();
  const double sim_s = static_cast<double>(out.stats.wall_ns) / 1e9;
  out.sim_rps = sim_s > 0 ? static_cast<double>(records) / sim_s : 0;
  out.sim_p99_us = quantile(sim_latency_us, 0.99);

  if (with_report) {
    // The operator's after-run report: merged snapshot, critical path
    // over it, and the JSON exports.
    Section timing;
    std::uint64_t t0 = now_ns();
    Result<obs::ClusterSnapshot> snapshot = Error::internal("unset");
    {
      Span span("snapshot");
      snapshot = pipeline.cluster_snapshot();
    }
    std::uint64_t t1 = now_ns();
    out.snapshot_s = seconds_between(t0, t1);
    if (!snapshot.ok()) {
      out.error = "snapshot: " + snapshot.error().message;
      return out;
    }
    const std::vector<std::string> names = fabric.node_names();
    obs::CriticalPathOptions opts;
    opts.deliveries = &fabric.deliveries();
    opts.node_names = &names;
    out.deliveries_logged = static_cast<double>(fabric.deliveries().size());
    Result<obs::CriticalPathReport> path = Error::internal("unset");
    t0 = now_ns();
    {
      Span span("critical_path");
      path = obs::critical_path(*snapshot, opts);
    }
    t1 = now_ns();
    out.critical_path_s = seconds_between(t0, t1);
    if (!path.ok()) {
      out.error = "critical_path: " + path.error().message;
      return out;
    }
    out.critical_path_steps = static_cast<double>(path->steps.size());
    t0 = now_ns();
    {
      Span span("export");
      out.export_bytes = static_cast<double>(snapshot->to_obs_json().size() +
                                             snapshot->to_trace_json().size() +
                                             path->to_json().size());
    }
    out.export_s = seconds_between(t0, now_ns());
    out.report_s = timing.stop();
  }

  // Oracle: every window once with the plain sum, flags equal the
  // injected thieves, one bill per meter, nothing dropped late.
  std::uint64_t window_misses = 0;
  {
    Span span("oracle");
    for (std::size_t slot = 0; slot < received.size(); ++slot) {
      if (received[slot] < 0 || !close(received[slot], expected.window_sum[slot])) ++window_misses;
    }
  }
  const bool flags_ok = flagged == expected.thieves;
  const bool bills_ok = bills == expected.bills;
  const bool late_ok = out.stats.stages[kWindowStage].late_dropped == 0;
  out.checked = received.size() + 3;
  out.mismatched = window_misses + duplicates + (flags_ok ? 0 : 1) + (bills_ok ? 0 : 1) +
                   (late_ok ? 0 : 1);
  out.ok = true;
  return out;
}

}  // namespace

void run_streams_city(const Options& options, Report& report) {
  City city;
  city.seed = options.seed;
  city.meters = std::max<std::size_t>(
      200, static_cast<std::size_t>(static_cast<double>(kMeters) * options.scale));
  city.thief_offset = mix(options.seed, 0x7e) % kTheftEvery;
  const std::size_t records = city.meters * kTicks;
  Expected expected = plain_city(city);
  if (options.plant_mismatch) expected.window_sum[0] += 1.0;
  report.note("streams_city: " + std::to_string(city.meters) + " meters x " +
              std::to_string(kTicks) + " ticks = " + std::to_string(records) +
              " records per run, " + std::to_string(expected.thieves.size()) +
              " thieves injected, pool " + std::to_string(options.pool));

  common::ThreadPool single(1);
  common::ThreadPool pool(options.pool);
  Ledger& ledger = Ledger::get();
  std::uint64_t trace_id = 0;

  auto account = [&](const RunResult& r, const char* what) {
    if (!r.ok) {
      report.checks(expected.window_sum.size() + 3, expected.window_sum.size() + 3,
                    std::string(what) + ": " + r.error);
      return false;
    }
    report.checks(r.checked, r.mismatched, std::string(what) + " output vs plain recomputation");
    return true;
  };

  // Warm-up and single-threaded baseline: the reference every measured
  // run must reproduce bit for bit (digest and sim metrics).
  const RunResult ref = run_once(city, expected, single, true, ++trace_id);
  if (!account(ref, "pool-1 run")) return;
  report.note("single-threaded baseline: " + std::to_string(records / ref.run_s) +
              " records/s; output digest " + std::to_string(ref.digest));

  struct Phase {
    std::vector<RunResult> runs;
    double wall_s = 0;
  };
  auto measure = [&](double budget_s, bool traced) {
    Phase phase;
    ledger.set_tracing(traced);
    const std::uint64_t start = now_ns();
    while (phase.runs.size() < 2 || seconds_between(start, now_ns()) < budget_s) {
      RunResult r = run_once(city, expected, pool, true, ++trace_id);
      if (!account(r, "measured run")) break;
      report.check(r.digest == ref.digest && r.sim_rps == ref.sim_rps &&
                       r.sim_p99_us == ref.sim_p99_us && r.stats == ref.stats,
                   "determinism: digest, stats and sim metrics equal the pool-1 run");
      phase.runs.push_back(std::move(r));
    }
    phase.wall_s = seconds_between(start, now_ns());
    ledger.set_tracing(false);
    return phase;
  };
  // Summed pipeline-run time of a phase: normalized, or as measured.
  auto run_seconds = [](const Phase& p, bool raw) {
    double s = 0;
    for (const auto& r : p.runs) s += raw ? r.run_raw_s : r.run_s;
    return s;
  };

  if (!options.trace) {
    Phase phase = measure(options.seconds, false);
    if (phase.runs.empty()) return;
    // Throughput is every record over the phase's summed pipeline-run
    // time. The other figures are medians over the pipeline runs, so a
    // run slowed by a neighbour on the machine does not move them.
    std::vector<double> setup, report_s, run_raw, p50, tail, slowdown;
    std::size_t samples = 0;
    for (const RunResult& r : phase.runs) {
      setup.push_back(r.setup_s);
      report_s.push_back(r.report_s);
      run_raw.push_back(r.run_raw_s);
      p50.push_back(r.p50_ms);
      tail.push_back(r.p99_ms);
      samples += r.samples;
      slowdown.push_back(r.run_raw_s / r.plain_s);
    }
    report.e2e("setup_s", median(setup), "s");
    report.e2e("throughput_rps",
               static_cast<double>(records * phase.runs.size()) / run_seconds(phase, false),
               "1/s");
    report.e2e("latency_p50_ms", median(p50), "ms");
    report.e2e("latency_tail_ms", median(tail), "ms");
    report.e2e("report_s", median(report_s), "s");
    report.e2e("secure_slowdown_x", median(slowdown), "x");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    report.note("latency: last reading of a (meter, window) generated -> window result at "
                "the sink; p50 and tail = p99 per pipeline run (" +
                std::to_string(samples / phase.runs.size()) + " samples), median over " +
                std::to_string(phase.runs.size()) + " runs");
    report.note("raw (unnormalized) median pipeline run: " + std::to_string(median(run_raw)) +
                " s, i.e. " + std::to_string(static_cast<double>(records) / median(run_raw)) +
                " records/s");
    report.note("secure_slowdown_x: pipeline run / plain recomputation right after it, "
                "median over runs");
    return;
  }

  // Traced run: an untraced half, then a traced half; per-layer numbers
  // come from the traced half, per pipeline run.
  const Phase untraced = measure(options.seconds / 2, false);
  const Phase traced = measure(options.seconds / 2, true);
  if (untraced.runs.empty() || traced.runs.empty()) return;
  const auto n = static_cast<double>(traced.runs.size());
  auto mean = [&](auto field) {
    double s = 0;
    for (const RunResult& r : traced.runs) s += static_cast<double>(field(r));
    return s / n;
  };
  const RunResult& last = traced.runs.back();

  const CryptoEstimate crypto = report_stack(report, last.counters, {}, 0);

  double stall_ns = 0;
  for (std::size_t i = 0; i < last.stats.stages.size(); ++i) {
    const streams::StageStats& s = last.stats.stages[i];
    const std::string base = std::string("streams.") + kStageNames[i];
    report.layer(base + ".records_in", static_cast<double>(s.records_in), "count");
    report.layer(base + ".records_out", static_cast<double>(s.records_out), "count");
    report.layer(base + ".credit_stalls", static_cast<double>(s.credit_stalls), "count");
    report.layer(base + ".stall_ns", static_cast<double>(s.stall_ns), "ns");
    stall_ns += static_cast<double>(s.stall_ns);
  }
  // Share of the stream's sim lifetime producers spent stalled on
  // credits, per stage that can stall.
  report.layer("streams.stall_ratio",
               stall_ns / (static_cast<double>(last.stats.wall_ns) *
                           static_cast<double>(last.stats.stages.size() - 1)),
               "ratio");
  double op_busy = 0;
  for (Op op : {Op::kSource, Op::kValidate, Op::kTheft, Op::kBilling, Op::kSink}) {
    op_busy += ledger.op_busy_s(op);
  }
  const double run_s = run_seconds(traced, true) / n;
  report.layer("streams.self_s", run_s - op_busy / n - crypto.est_s, "s");
  report_ops(report, n);

  report.layer("obs.snapshot_s", mean([](const RunResult& r) { return r.snapshot_s; }), "s");
  report.layer("obs.critical_path_s", mean([](const RunResult& r) { return r.critical_path_s; }), "s");
  report.layer("obs.critical_path_steps", last.critical_path_steps, "count");
  report.layer("obs.export_s", mean([](const RunResult& r) { return r.export_s; }), "s");
  report.layer("obs.export_bytes", last.export_bytes, "B");
  report.layer("obs.deliveries_logged", last.deliveries_logged, "count");

  const double layers_s = ledger.span_seconds("setup") + ledger.span_seconds("run") +
                          ledger.span_seconds("snapshot") +
                          ledger.span_seconds("critical_path") + ledger.span_seconds("export");
  const double bench_s = ledger.span_seconds("probe") + ledger.span_seconds("plain") +
                         ledger.span_seconds("oracle");
  report.layer("ledger.bench_s", bench_s / n, "s");
  report.layer("ledger.residual_s", (traced.wall_s - layers_s - bench_s) / n, "s");
  report.layer("trace.overhead_ratio",
               (run_seconds(traced, false) / n) /
                       (run_seconds(untraced, false) / static_cast<double>(untraced.runs.size())) -
                   1.0,
               "ratio");
  report.layer("sim_throughput_rps", last.sim_rps, "1/s");
  report.layer("sim_latency_p99_us", last.sim_p99_us, "us");
}

}  // namespace perfbench
