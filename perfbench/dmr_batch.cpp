// Workload `dmr_batch`: the paper's theft-detection use case as a
// DistributedMapReduce job over 4 attested workers on MeterFleet
// readings. Closed loop: one job at a time, repeated on one cluster
// with cluster obs on. Each round builds a cluster, runs kJobsPerRound
// jobs and takes the after-run report, so the report always covers the
// same amount of trace. Bulk costs dominate: every record is opened in
// a worker enclave, and shuffle blocks travel as a few large sealed
// fabric messages. A plain single-threaded aggregation over the same
// serialized readings is the oracle and the secure-vs-plain baseline.
#include <algorithm>
#include <memory>

#include "bigdata/distributed_mapreduce.hpp"
#include "common/thread_pool.hpp"
#include "ledger.hpp"
#include "net/fabric.hpp"
#include "obs/cluster.hpp"
#include "sgx/attestation.hpp"
#include "smartgrid/meter.hpp"

namespace perfbench {
namespace {

using namespace securecloud;

constexpr std::size_t kHouseholds = 24;
constexpr std::uint64_t kIntervalS = 120;  // 720 readings per household-day
constexpr std::size_t kPartitions = 16;
constexpr std::size_t kJobsPerRound = 8;
constexpr std::uint64_t kSplitS = 12 * 3600;
constexpr std::size_t kReportRepeats = 30;
constexpr std::size_t kMinSetups = 9;

using Output = std::map<std::string, double>;

/// Theft-detection map: each reading adds its power to its meter's
/// baseline or recent (sum, count), as TheftDetector does.
std::vector<bigdata::KeyValue> theft_map(ByteView record) {
  auto reading = smartgrid::MeterReading::deserialize(record);
  if (!reading.ok()) return {};
  const char* window = reading->timestamp_s < kSplitS ? "base" : "recent";
  return {
      {reading->meter_id + "|" + window + "|sum", reading->power_w},
      {reading->meter_id + "|" + window + "|cnt", 1.0},
  };
}

double sum_reduce(const std::string&, const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

/// The same aggregation, plain and single-threaded, over the same
/// serialized readings.
Output plain_aggregate(const std::vector<std::vector<Bytes>>& partitions) {
  Output out;
  for (const auto& partition : partitions) {
    for (const Bytes& record : partition) {
      for (const auto& kv : theft_map(record)) out[kv.key] += kv.value;
    }
  }
  return out;
}

/// One attested cluster: clock, fabric, service and driver live and die
/// together (the driver borrows the fabric, the fabric the clock).
struct Cluster {
  SimClock clock;
  net::Fabric fabric{clock};
  sgx::AttestationService service;
  bigdata::DistributedMapReduce driver{fabric, config()};

  static bigdata::DistributedMapReduceConfig config() {
    bigdata::DistributedMapReduceConfig c;
    c.num_workers = 4;
    c.num_reducers = 4;
    return c;
  }

  Counters counters() {
    std::vector<const obs::NodeObs*> nodes = {driver.coordinator_obs()};
    for (std::size_t w = 0; w < driver.num_workers(); ++w) nodes.push_back(driver.worker_obs(w));
    return collect_counters(nodes, fabric.stats());
  }
};

struct Job {
  bool ok = false;
  std::string error;
  double wall_s = 0;  // normalized to the reference host speed
  double raw_s = 0;   // as measured
  double plain_s = 0;  // plain aggregation right after the job, as measured
  double sim_s = 0;
  std::uint64_t digest = 0;
  bigdata::JobStats stats;
  Output output;
};

struct ReportTiming {
  bool ok = false;
  std::string error;
  double report_s = 0;  // normalized to the reference host speed
  double snapshot_s = 0, critical_path_s = 0, export_s = 0;  // as measured
  double steps = 0, export_bytes = 0, deliveries = 0;
};

}  // namespace

void run_dmr_batch(const Options& options, Report& report) {
  smartgrid::GridConfig grid;
  grid.households = std::max<std::size_t>(
      4, static_cast<std::size_t>(static_cast<double>(kHouseholds) * options.scale));
  grid.interval_s = kIntervalS;
  for (std::size_t i = 0; i < 2; ++i) {
    grid.thefts.push_back({.household = mix(options.seed, 0xd3, i) % grid.households,
                           .start_s = kSplitS,
                           .reported_fraction = 0.3});
  }
  const smartgrid::MeterFleet fleet(grid, options.seed);
  std::vector<std::vector<Bytes>> plain(kPartitions);
  std::size_t records = 0;
  for (std::size_t h = 0; h < grid.households; ++h) {
    for (const auto& reading : fleet.household_series(h)) {
      plain[h % kPartitions].push_back(reading.serialize());
      ++records;
    }
  }
  Output expected = plain_aggregate(plain);
  if (options.plant_mismatch) expected.begin()->second += 1.0;
  report.note("dmr_batch: " + std::to_string(grid.households) + " households, " +
              std::to_string(records) + " readings per job in " +
              std::to_string(kPartitions) + " partitions, 4 workers, " +
              std::to_string(kJobsPerRound) + " jobs per cluster, pool " +
              std::to_string(options.pool));

  common::ThreadPool single(1);
  common::ThreadPool pool(options.pool);
  Ledger& ledger = Ledger::get();
  std::uint64_t trace_id = 0;
  std::vector<double> setup_samples;

  auto build = [&]() -> std::unique_ptr<Cluster> {
    auto cluster = std::make_unique<Cluster>();
    cluster->driver.enable_cluster_obs();
    Status status;
    Section timing;
    {
      Span span("setup");
      status = cluster->driver.setup(cluster->service);
    }
    setup_samples.push_back(timing.stop());
    report.check(status.ok(), "cluster setup");
    if (!status.ok()) return nullptr;
    cluster->fabric.enable_delivery_log();  // job traffic only, for the analyzer
    return cluster;
  };

  std::vector<std::vector<Bytes>> encrypted;
  double encrypt_s = 0;
  auto encrypt = [&](Cluster& cluster) {
    encrypted.clear();
    const std::uint64_t t0 = now_ns();
    Span span("encrypt_partition");
    for (const auto& partition : plain) {
      encrypted.push_back(cluster.driver.encrypt_partition(partition));
    }
    encrypt_s = seconds_between(t0, now_ns());
  };

  auto run_job = [&](Cluster& cluster) {
    Job job;
    Result<bigdata::JobResult> result = Error::internal("unset");
    Section timing;
    {
      Span span("run");
      ledger.set_context(++trace_id, span.id());
      result = cluster.driver.run(
          encrypted,
          [&](ByteView record) { return ledger.timed_op(Op::kMap, [&] { return theft_map(record); }); },
          [&](const std::string& key, const std::vector<double>& values) {
            return ledger.timed_op(Op::kReduce, [&] { return sum_reduce(key, values); });
          });
    }
    job.wall_s = timing.stop();
    job.raw_s = timing.raw_s();
    if (!result.ok()) {
      job.error = result.error().message;
      report.checks(expected.size(), expected.size(), "job: " + job.error);
      return job;
    }
    job.ok = true;
    job.stats = result->stats;
    job.sim_s = static_cast<double>(job.stats.simulated_cycles) /
                (cluster.clock.frequency_ghz() * 1e9);
    Span span("oracle");
    Digest digest;
    std::uint64_t misses = result->output.size() == expected.size() ? 0 : 1;
    for (const auto& [key, value] : result->output) {
      digest.add(key);
      digest.add_double(value);
      auto it = expected.find(key);
      if (it == expected.end() || !close(value, it->second)) ++misses;
    }
    report.checks(expected.size(), misses, "job output vs plain aggregation (key for key, rel 1e-9)");
    job.digest = digest.value();
    job.output = std::move(result->output);
    return job;
  };

  auto take_report = [&](Cluster& cluster) {
    ReportTiming r;
    Result<obs::ClusterSnapshot> snapshot = Error::internal("unset");
    std::uint64_t t0 = now_ns();
    {
      Span span("snapshot");
      snapshot = cluster.driver.collect_cluster_snapshot();
    }
    r.snapshot_s = seconds_between(t0, now_ns());
    if (!snapshot.ok()) {
      r.error = snapshot.error().message;
      return r;
    }
    // The latest job's trace: the last root span in merged order.
    std::uint64_t trace = 0, latest = 0;
    for (const auto& node : snapshot->nodes) {
      for (const auto& span : node.spans) {
        if (span.parent_id == 0 && span.start_cycles >= latest) {
          latest = span.start_cycles;
          trace = span.trace_id;
        }
      }
    }
    const std::vector<std::string> names = cluster.fabric.node_names();
    obs::CriticalPathOptions opts;
    opts.trace_id = trace;
    opts.deliveries = &cluster.fabric.deliveries();
    opts.node_names = &names;
    r.deliveries = static_cast<double>(cluster.fabric.deliveries().size());
    Result<obs::CriticalPathReport> path = Error::internal("unset");
    t0 = now_ns();
    {
      Span span("critical_path");
      path = obs::critical_path(*snapshot, opts);
    }
    r.critical_path_s = seconds_between(t0, now_ns());
    if (!path.ok()) {
      r.error = path.error().message;
      return r;
    }
    r.steps = static_cast<double>(path->steps.size());
    t0 = now_ns();
    {
      Span span("export");
      r.export_bytes = static_cast<double>(snapshot->to_obs_json().size() +
                                           snapshot->to_trace_json().size() +
                                           path->to_json().size());
    }
    r.export_s = seconds_between(t0, now_ns());
    r.ok = true;
    return r;
  };

  struct Round {
    std::vector<Job> jobs;
    ReportTiming report;
    Counters counters;  // deltas over the jobs
  };
  // One cluster: set up, encrypt the input, kJobsPerRound jobs, report.
  auto run_round = [&](common::ThreadPool& threads) {
    Round round;
    auto cluster = build();
    if (!cluster) return round;
    encrypt(*cluster);
    cluster->driver.set_pool(&threads);
    const auto before = cluster->counters();
    for (std::size_t j = 0; j < kJobsPerRound; ++j) {
      round.jobs.push_back(run_job(*cluster));
      Job& job = round.jobs.back();
      if (!job.ok) return round;
      // The plain baseline, timed right after the job so both see the
      // same host speed.
      Span span("plain");
      const std::uint64_t t0 = now_ns();
      const Output again = plain_aggregate(plain);
      job.plain_s = seconds_between(t0, now_ns());
    }
    for (const auto& [name, value] : cluster->counters()) {
      const auto it = before.find(name);
      round.counters[name] = value - (it == before.end() ? 0 : it->second);
    }
    // One report takes under a millisecond, too short to time alone:
    // time kReportRepeats back to back and report the mean.
    {
      Section timing;
      for (std::size_t rep = 0; rep < kReportRepeats && (rep == 0 || round.report.ok); ++rep) {
        round.report = take_report(*cluster);
      }
      round.report.report_s = timing.stop() / kReportRepeats;
    }
    report.check(round.report.ok, "after-run report: " + round.report.error);
    return round;
  };
  auto complete = [](const Round& r) {
    return r.jobs.size() == kJobsPerRound && r.jobs.back().ok && r.report.ok;
  };

  // Warm-up and single-threaded baseline: the reference round every
  // measured round must reproduce job for job, bit for bit. (Sim time
  // is compared per job position: it carries the cluster's history.)
  const Round ref = run_round(single);
  if (!complete(ref)) return;
  report.note("single-threaded baseline: " + std::to_string(records / ref.jobs[0].wall_s) +
              " records/s; output digest " + std::to_string(ref.jobs[0].digest));
  setup_samples.clear();

  struct Phase {
    std::vector<Job> jobs;
    std::vector<ReportTiming> reports;
    std::vector<double> slowdown;  // per job: raw job / plain aggregation
    Counters counters;  // summed over rounds
    double wall_s = 0;
  };
  auto measure = [&](double budget_s, bool traced) {
    Phase phase;
    ledger.set_tracing(traced);
    const std::uint64_t start = now_ns();
    while (phase.reports.size() < 2 || seconds_between(start, now_ns()) < budget_s) {
      Round round = run_round(pool);
      if (!complete(round)) break;
      for (const Job& job : round.jobs) phase.slowdown.push_back(job.raw_s / job.plain_s);
      for (std::size_t j = 0; j < kJobsPerRound; ++j) {
        const Job& a = round.jobs[j];
        const Job& b = ref.jobs[j];
        report.check(a.digest == b.digest && a.stats.simulated_cycles == b.stats.simulated_cycles &&
                         a.stats.shuffle_bytes == b.stats.shuffle_bytes &&
                         a.stats.enclave_transitions == b.stats.enclave_transitions,
                     "determinism: job at pool N equals the pool-1 job");
        phase.jobs.push_back(std::move(round.jobs[j]));
      }
      for (const auto& [name, value] : round.counters) phase.counters[name] += value;
      phase.reports.push_back(round.report);
    }
    phase.wall_s = seconds_between(start, now_ns());
    ledger.set_tracing(false);
    return phase;
  };
  // Summed job time of a phase: normalized, or as measured.
  auto job_seconds = [](const Phase& p, bool raw) {
    double s = 0;
    for (const Job& job : p.jobs) s += raw ? job.raw_s : job.wall_s;
    return s;
  };

  if (!options.trace) {
    Phase phase = measure(options.seconds, false);
    if (phase.reports.empty()) return;
    std::vector<double> latency, raw, report_s;
    for (const Job& job : phase.jobs) {
      latency.push_back(job.wall_s * 1e3);
      raw.push_back(job.raw_s);
    }
    for (const ReportTiming& r : phase.reports) report_s.push_back(r.report_s);
    // More set-ups than clusters, so the median rests on enough samples.
    while (setup_samples.size() < kMinSetups && build() != nullptr) {
    }
    report.e2e("setup_s", median(setup_samples), "s");
    report.e2e("throughput_rps",
               static_cast<double>(records * phase.jobs.size()) / job_seconds(phase, false),
               "1/s");
    report.e2e("latency_p50_ms", median(latency), "ms");
    report.e2e("latency_tail_ms", quantile(latency, 0.80), "ms");
    report.e2e("report_s", median(report_s), "s");
    report.e2e("secure_slowdown_x", median(phase.slowdown), "x");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    report.note("latency: per-job completion time; tail = p80 of " +
                std::to_string(latency.size()) + " jobs on " +
                std::to_string(phase.reports.size()) + " clusters");
    report.note("throughput: every job's records over the summed job time");
    report.note("secure_slowdown_x: job / plain aggregation right after it, median over jobs");
    report.note("raw (unnormalized) median job: " + std::to_string(median(raw)) + " s, i.e. " +
                std::to_string(static_cast<double>(records) / median(raw)) + " records/s");
    return;
  }

  const Phase untraced = measure(options.seconds / 2, false);
  const Phase traced = measure(options.seconds / 2, true);
  if (untraced.jobs.empty() || traced.jobs.empty()) return;
  const auto jobs = static_cast<double>(traced.jobs.size());
  Counters per_job = traced.counters;
  for (auto& [name, value] : per_job) value /= jobs;
  const Job& last = traced.jobs.back();

  const double blocks = counter(per_job, "dist_mapreduce_shuffle_blocks_total");
  // A result block carries its bundle's (key, value) pairs.
  const double results = counter(per_job, "dist_mapreduce_results_total");
  double result_bytes = 0;
  for (const auto& [key, value] : last.output) result_bytes += static_cast<double>(key.size() + 12);
  double record_bytes = 0;
  for (const auto& partition : encrypted) {
    for (const Bytes& r : partition) record_bytes += static_cast<double>(r.size());
  }
  const CryptoEstimate crypto = report_stack(
      report, per_job,
      {
          {"input records", 0, static_cast<double>(records),
           record_bytes / static_cast<double>(records)},
          {"shuffle blocks", blocks, blocks,
           blocks > 0 ? static_cast<double>(last.stats.shuffle_bytes) / blocks : 0},
          {"results", results, results, results > 0 ? result_bytes / results : 0},
      },
      static_cast<double>(last.stats.enclave_transitions));

  const double job_s = job_seconds(traced, true) / jobs;
  const double op_s = (ledger.op_busy_s(Op::kMap) + ledger.op_busy_s(Op::kReduce)) / jobs;
  report.layer("bigdata.dmr.encrypt_s", encrypt_s, "s");
  report.layer("bigdata.dmr.shuffle_bytes", static_cast<double>(last.stats.shuffle_bytes), "B");
  report.layer("bigdata.dmr.map_tasks", counter(per_job, "dist_mapreduce_map_tasks_total"), "count");
  report.layer("bigdata.dmr.self_s", job_s - op_s - crypto.est_s, "s");
  report_ops(report, jobs);

  const auto rounds = static_cast<double>(traced.reports.size());
  auto mean = [&](auto field) {
    double s = 0;
    for (const ReportTiming& r : traced.reports) s += field(r);
    return s / rounds;
  };
  report.layer("obs.snapshot_s", mean([](const ReportTiming& r) { return r.snapshot_s; }), "s");
  report.layer("obs.critical_path_s", mean([](const ReportTiming& r) { return r.critical_path_s; }), "s");
  report.layer("obs.critical_path_steps", traced.reports.back().steps, "count");
  report.layer("obs.export_s", mean([](const ReportTiming& r) { return r.export_s; }), "s");
  report.layer("obs.export_bytes", traced.reports.back().export_bytes, "B");
  report.layer("obs.deliveries_logged", traced.reports.back().deliveries, "count");

  const double layers_s = ledger.span_seconds("setup") + ledger.span_seconds("encrypt_partition") +
                          ledger.span_seconds("run") + ledger.span_seconds("snapshot") +
                          ledger.span_seconds("critical_path") + ledger.span_seconds("export");
  const double bench_s = ledger.span_seconds("probe") + ledger.span_seconds("plain") +
                         ledger.span_seconds("oracle");
  report.layer("ledger.bench_s", bench_s / jobs, "s");
  report.layer("ledger.residual_s", (traced.wall_s - layers_s - bench_s) / jobs, "s");
  report.layer("trace.overhead_ratio",
               (job_seconds(traced, false) / jobs) /
                       (job_seconds(untraced, false) / static_cast<double>(untraced.jobs.size())) -
                   1.0,
               "ratio");
  report.layer("sim_throughput_rps", static_cast<double>(records) / last.sim_s, "1/s");
  report.layer("sim_latency_p99_us", last.sim_s * 1e6, "us");
}

}  // namespace perfbench
