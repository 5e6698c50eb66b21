// Workload `scbr_pubsub`: the 12-broker attested SCBR tree under a
// containment-rich filter set. Closed loop in epochs: each epoch sets
// up a fresh overlay (11 attested edge handshakes), preloads kPreload
// subscriptions, then runs kRounds rounds of kSubsPerRound installs
// (routing-table writes: covering, pruning) beside one publish wave of
// kEventsPerWave events (reads: matching and forwarding). Epochs repeat
// the same seeded sequence, so the routing tables never outgrow the
// epoch and every epoch must deliver identically. Stresses scbr and
// session setup; barely touches bulk crypto, streams or obs analysis.
#include <algorithm>
#include <memory>

#include "common/thread_pool.hpp"
#include "ledger.hpp"
#include "net/fabric.hpp"
#include "obs/cluster.hpp"
#include "scbr/fabric_overlay.hpp"
#include "scbr/naive_engine.hpp"
#include "scbr/sharded_engine.hpp"
#include "scbr/workload.hpp"
#include "sgx/attestation.hpp"

namespace perfbench {
namespace {

using namespace securecloud;

constexpr std::size_t kBrokers = 12;
constexpr std::size_t kPreload = 8192;
constexpr std::size_t kPreloadDrainEvery = 4096;
constexpr std::size_t kRounds = 48;
constexpr std::size_t kSubsPerRound = 64;
constexpr std::size_t kEventsPerWave = 256;
constexpr std::uint64_t kTenants = 64;
constexpr std::size_t kReportRepeats = 200;
constexpr std::size_t kMinSetups = 9;

/// Balanced binary tree over kBrokers: children of i are 2i+1, 2i+2.
std::vector<std::pair<scbr::BrokerId, scbr::BrokerId>> binary_tree() {
  std::vector<std::pair<scbr::BrokerId, scbr::BrokerId>> links;
  for (scbr::BrokerId i = 0; 2 * i + 1 < kBrokers; ++i) {
    links.emplace_back(i, 2 * i + 1);
    if (2 * i + 2 < kBrokers) links.emplace_back(i, 2 * i + 2);
  }
  return links;
}

scbr::WorkloadConfig workload_config() {
  // Most filters narrow an existing one, so covering keeps the remote
  // tables far below the install count; narrow ranges keep deliveries
  // per event bounded.
  scbr::WorkloadConfig c;
  c.attribute_universe = 16;
  c.attributes_per_filter = 3;
  c.width_fraction = 0.05;
  c.hierarchy_fraction = 0.95;
  c.parent_pool = 4096;
  return c;
}

/// Epoch size: kPreload and kRounds scaled by --scale.
struct Shape {
  std::size_t preload;
  std::size_t rounds;
};

Shape shape(const Options& options) {
  return {std::max<std::size_t>(256, static_cast<std::size_t>(static_cast<double>(kPreload) * options.scale)),
          std::max<std::size_t>(4, static_cast<std::size_t>(static_cast<double>(kRounds) * options.scale))};
}

/// One overlay with everything it borrows.
struct Overlay {
  SimClock clock;
  net::Fabric fabric{clock};
  sgx::AttestationService service;
  scbr::FabricOverlay overlay{fabric, config()};

  static scbr::FabricOverlayConfig config() {
    scbr::FabricOverlayConfig c;
    c.broker_count = kBrokers;
    c.links = binary_tree();
    return c;
  }
};

struct Epoch {
  bool ok = false;
  std::string error;
  // Normalized to the reference host speed (see Section).
  double setup_s = 0, report_s = 0, subscribe_norm_s = 0;
  std::vector<double> wave_ms;
  // As measured.
  double snapshot_s = 0, export_s = 0, export_bytes = 0;
  double subscribe_s = 0, subscribe_drain_s = 0, publish_s = 0, publish_drain_s = 0;
  double plain_s = 0;  // plain matching of every published event
  std::uint64_t plain_matches = 0;  // matching subscriptions, summed over events
  std::vector<std::uint64_t> wave_sim_ns;
  std::uint64_t digest = 0;
  scbr::OverlayStats stats;
  std::uint64_t hops = 0, deliveries = 0;  // publish phase only
  std::size_t max_remote = 0;
  Counters counters;
  std::uint64_t checked = 0, mismatched = 0;
};

bool same_stats(const scbr::OverlayStats& a, const scbr::OverlayStats& b) {
  return a.subscriptions_forwarded == b.subscriptions_forwarded &&
         a.subscriptions_suppressed == b.subscriptions_suppressed &&
         a.table_prunes == b.table_prunes && a.publication_hops == b.publication_hops &&
         a.deliveries == b.deliveries;
}

/// Sets the overlay up; returns the normalized set-up time.
double time_setup(Overlay& o, Status& status) {
  Section timing;
  {
    Span span("setup");
    status = o.overlay.setup(o.service);
  }
  return timing.stop();
}

Epoch run_epoch(const Options& options, common::ThreadPool& pool, std::uint64_t trace_id) {
  const Shape size = shape(options);
  Epoch out;
  Ledger& ledger = Ledger::get();
  ledger.set_context(trace_id, 0);
  // The population is the union of kTenants independent seeded
  // workloads, taken in turn: one seed's few broad filters would
  // otherwise set the whole run's delivery rate, and its filter
  // hierarchy the matching cost.
  std::vector<scbr::ScbrWorkload> tenants;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    tenants.emplace_back(workload_config(), mix(options.seed, 0x5cb7, t));
  }
  std::size_t next_filter = 0, next_event = 0;
  scbr::NaiveEngine naive;
  scbr::ShardedPosetEngine plain;
  auto o = std::make_unique<Overlay>();
  Status status;
  out.setup_s = time_setup(*o, status);
  if (!status.ok()) {
    out.error = "setup: " + status.error().message;
    return out;
  }
  scbr::FabricOverlay& overlay = o->overlay;

  // Every filter also goes to the oracle and to the plain engine.
  scbr::SubscriptionId next_id = 1;
  auto next_batch = [&](std::size_t count) {
    Span span("oracle");
    std::vector<std::pair<scbr::SubscriptionId, scbr::Filter>> batch;
    for (std::size_t i = 0; i < count; ++i) {
      batch.emplace_back(next_id++, tenants[next_filter++ % kTenants].next_filter());
      naive.subscribe(batch.back().first, batch.back().second);
      plain.subscribe(batch.back().first, batch.back().second);
    }
    return batch;
  };
  auto install = [&](const std::pair<scbr::SubscriptionId, scbr::Filter>& sub) {
    const auto [id, filter] = sub;
    return overlay.subscribe(static_cast<scbr::BrokerId>(id % kBrokers), id, filter).ok();
  };
  {
    const auto batch = next_batch(size.preload);
    Span span("preload");
    for (std::size_t i = 1; i <= size.preload; ++i) {
      if (!install(batch[i - 1])) {
        out.error = "preload subscribe failed";
        return out;
      }
      if (i % kPreloadDrainEvery == 0) overlay.drain();
    }
    overlay.drain();
  }
  const scbr::OverlayStats before = overlay.stats();
  // --plant-mismatch shifts every expected home broker, and the
  // expected delivery count, by one.
  const scbr::SubscriptionId planted_shift = options.plant_mismatch ? 1 : 0;

  for (std::size_t round = 0; round < size.rounds; ++round) {
    // Writes: installs advertised through the tree, drained.
    const auto batch = next_batch(kSubsPerRound);
    bool ok = true;
    {
      Section timing;
      const std::uint64_t t0 = now_ns();
      {
        Span span("subscribe");
        for (const auto& sub : batch) ok = install(sub) && ok;
      }
      const std::uint64_t t1 = now_ns();
      {
        Span span("drain");
        overlay.drain();
      }
      out.subscribe_norm_s += timing.stop();
      out.subscribe_s += seconds_between(t0, t1);
      out.subscribe_drain_s += seconds_between(t1, now_ns());
    }
    if (!ok) {
      out.error = "subscribe failed";
      return out;
    }

    // Reads: one publish wave from a rotating origin, drained.
    std::vector<scbr::Event> events;
    events.reserve(kEventsPerWave);
    for (std::size_t i = 0; i < kEventsPerWave; ++i) {
      events.push_back(tenants[next_event++ % kTenants].next_event());
    }
    const auto origin = static_cast<scbr::BrokerId>((round * 5) % kBrokers);
    const std::uint64_t sim0 = o->fabric.now_ns();
    Result<std::vector<std::uint64_t>> ids = Error::internal("unset");
    {
      Section timing;
      const std::uint64_t t0 = now_ns();
      {
        Span span("publish_batch");
        ids = overlay.publish_batch(origin, events, &pool);
      }
      const std::uint64_t t1 = now_ns();
      {
        Span span("drain");
        overlay.drain();
      }
      out.wave_ms.push_back(timing.stop() * 1e3);
      out.publish_s += seconds_between(t0, t1);
      out.publish_drain_s += seconds_between(t1, now_ns());
    }
    out.wave_sim_ns.push_back(o->fabric.now_ns() - sim0);
    if (!ids.ok()) {
      out.error = "publish: " + ids.error().message;
      return out;
    }

    {
      // Plain baseline: the same matching algorithm over every
      // subscription in one engine, no enclaves, fabric or crypto.
      Span span("plain");
      const std::uint64_t p0 = now_ns();
      for (const scbr::Event& event : events) {
        out.plain_matches += plain.match_with_trace(event, nullptr).size();
      }
      out.plain_s += seconds_between(p0, now_ns());
    }

    // Oracle: the wave's first event is delivered exactly to the
    // subscriptions NaiveEngine finds, at their home brokers.
    Span span("oracle");
    const std::vector<scbr::SubscriptionId> matched = naive.match_with_trace(events[0], nullptr);
    scbr::FabricOverlay::DeliverySet expected;
    for (const scbr::SubscriptionId id : matched) {
      expected.insert({static_cast<scbr::BrokerId>((id + planted_shift) % kBrokers), id});
    }
    const auto& all = overlay.deliveries();
    const auto it = all.find(ids->front());
    const bool equal = it == all.end() ? expected.empty() : it->second == expected;
    ++out.checked;
    out.mismatched += equal ? 0 : 1;
  }
  if (Status health = overlay.health(); !health.ok()) {
    out.error = "health: " + health.error().message;
    return out;
  }
  out.stats = overlay.stats();
  out.hops = out.stats.publication_hops - before.publication_hops;
  out.deliveries = out.stats.deliveries - before.deliveries;
  std::vector<const obs::NodeObs*> nodes;
  for (scbr::BrokerId b = 0; b < kBrokers; ++b) {
    out.max_remote = std::max(out.max_remote, overlay.remote_entries(b));
    nodes.push_back(overlay.broker_obs(b));
  }
  out.counters = collect_counters(nodes, o->fabric.stats());
  // Every publication reaches each matching subscription exactly once.
  ++out.checked;
  out.mismatched += out.deliveries == out.plain_matches + planted_shift ? 0 : 1;
  {
    Span span("oracle");
    Digest digest;
    for (const auto& [publication, set] : overlay.deliveries()) {
      digest.add_u64(publication);
      for (const auto& [broker, id] : set) {
        digest.add_u64(broker);
        digest.add_u64(id);
      }
    }
    out.digest = digest.value();
  }

  // After-run report: merged broker snapshot and its JSON exports. One
  // takes well under a millisecond, too short to time alone: time
  // kReportRepeats back to back and report the mean.
  Section timing;
  for (std::size_t rep = 0; rep < kReportRepeats; ++rep) {
    const std::uint64_t t0 = now_ns();
    Result<obs::ClusterSnapshot> snapshot = Error::internal("unset");
    {
      Span span("snapshot");
      snapshot = overlay.cluster_snapshot();
    }
    const std::uint64_t t1 = now_ns();
    if (!snapshot.ok()) {
      out.error = "snapshot: " + snapshot.error().message;
      return out;
    }
    {
      Span span("export");
      out.export_bytes =
          static_cast<double>(snapshot->to_obs_json().size() + snapshot->to_trace_json().size());
    }
    out.snapshot_s = seconds_between(t0, t1);
    out.export_s = seconds_between(t1, now_ns());
  }
  out.report_s = timing.stop() / kReportRepeats;
  out.ok = true;
  return out;
}

}  // namespace

void run_scbr_pubsub(const Options& options, Report& report) {
  const Shape size = shape(options);
  report.note("scbr_pubsub: " + std::to_string(kBrokers) + " brokers, " +
              std::to_string(size.preload) + " preloaded subscriptions, then " +
              std::to_string(size.rounds) + " rounds of " + std::to_string(kSubsPerRound) +
              " installs + " + std::to_string(kEventsPerWave) + "-event wave per epoch, pool " +
              std::to_string(options.pool));
  common::ThreadPool single(1);
  common::ThreadPool pool(options.pool);
  Ledger& ledger = Ledger::get();
  std::uint64_t trace_id = 0;

  auto account = [&](const Epoch& e, const char* what) {
    if (!e.ok) {
      report.checks(size.rounds, size.rounds, std::string(what) + ": " + e.error);
      return false;
    }
    report.checks(e.checked, e.mismatched, std::string(what) + " deliveries vs NaiveEngine");
    return true;
  };

  // Warm-up and single-threaded baseline (publish matching on one
  // thread): the reference every measured epoch must reproduce.
  const Epoch ref = run_epoch(options, single, ++trace_id);
  if (!account(ref, "pool-1 epoch")) return;
  report.note("single-threaded baseline: " +
              std::to_string(static_cast<double>(size.rounds * kEventsPerWave) /
                             (ref.publish_s + ref.publish_drain_s)) +
              " events/s; delivery digest " + std::to_string(ref.digest));

  struct Phase {
    std::vector<Epoch> epochs;
    double wall_s = 0;
  };
  auto measure = [&](double budget_s, bool traced) {
    Phase phase;
    ledger.set_tracing(traced);
    const std::uint64_t start = now_ns();
    while (phase.epochs.size() < 2 || seconds_between(start, now_ns()) < budget_s) {
      Epoch e = run_epoch(options, pool, ++trace_id);
      if (!account(e, "measured epoch")) break;
      report.check(e.digest == ref.digest && same_stats(e.stats, ref.stats) &&
                       e.wave_sim_ns == ref.wave_sim_ns,
                   "determinism: deliveries, stats and sim wave times equal the pool-1 epoch");
      phase.epochs.push_back(std::move(e));
    }
    phase.wall_s = seconds_between(start, now_ns());
    ledger.set_tracing(false);
    return phase;
  };
  // Summed normalized publish-wave time of a phase.
  auto publish_seconds = [](const Phase& p) {
    double s = 0;
    for (const Epoch& e : p.epochs) {
      for (const double ms : e.wave_ms) s += ms / 1e3;
    }
    return s;
  };
  const double events_per_epoch = static_cast<double>(size.rounds * kEventsPerWave);

  if (!options.trace) {
    const Phase phase = measure(options.seconds, false);
    if (phase.epochs.empty()) return;
    // Wave latencies are summarized per epoch and the epochs' figures
    // medianed, so a burst of host contention moves one epoch at most.
    std::vector<double> setup, report_s, p50, tail;
    double plain_s = 0, raw_s = 0, rounds_s = 0;
    for (Epoch e : phase.epochs) {
      setup.push_back(e.setup_s);
      report_s.push_back(e.report_s);
      p50.push_back(quantile(e.wave_ms, 0.50));
      tail.push_back(quantile(e.wave_ms, 0.80));
      plain_s += e.plain_s;
      raw_s += e.publish_s + e.publish_drain_s;
      rounds_s += e.subscribe_norm_s;
    }
    rounds_s += publish_seconds(phase);
    // More set-ups than epochs, so the median rests on enough samples.
    while (setup.size() < kMinSetups) {
      Overlay o;
      Status status;
      setup.push_back(time_setup(o, status));
      report.check(status.ok(), "extra overlay setup");
    }
    report.e2e("setup_s", median(setup), "s");
    report.e2e("throughput_rps",
               events_per_epoch * static_cast<double>(phase.epochs.size()) / rounds_s, "1/s");
    report.e2e("latency_p50_ms", median(p50), "ms");
    report.e2e("latency_tail_ms", median(tail), "ms");
    report.e2e("report_s", median(report_s), "s");
    report.e2e("secure_slowdown_x", raw_s / plain_s, "x");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    report.note("throughput: published events over the epochs' summed install and publish "
                "rounds (preload excluded)");
    report.note("latency: publish_batch of one wave until drain() returns; p50 and tail = p80 "
                "per epoch (" + std::to_string(size.rounds) + " waves), median over " +
                std::to_string(phase.epochs.size()) + " epochs");
    report.note("secure_slowdown_x: overlay publish+drain time / plain ShardedPosetEngine "
                "matching of the same events over the same subscriptions (" +
                std::to_string(plain_s * 1e3) + " ms)");
    report.note("raw (unnormalized) publish rate: " +
                std::to_string(events_per_epoch * static_cast<double>(phase.epochs.size()) / raw_s) +
                " events/s");
    return;
  }

  const Phase untraced = measure(options.seconds / 2, false);
  const Phase traced = measure(options.seconds / 2, true);
  if (untraced.epochs.empty() || traced.epochs.empty()) return;
  const auto n = static_cast<double>(traced.epochs.size());
  auto mean = [&](auto field) {
    double s = 0;
    for (const Epoch& e : traced.epochs) s += static_cast<double>(field(e));
    return s / n;
  };
  const Epoch& last = traced.epochs.back();

  report_stack(report, last.counters, {}, 0);
  report_ops(report, n);

  const double adverts = static_cast<double>(last.stats.subscriptions_forwarded +
                                             last.stats.subscriptions_suppressed);
  report.layer("scbr.subscribe_busy_s", mean([](const Epoch& e) { return e.subscribe_s; }), "s");
  report.layer("scbr.publish_busy_s", mean([](const Epoch& e) { return e.publish_s; }), "s");
  report.layer("scbr.drain_s",
               mean([](const Epoch& e) { return e.subscribe_drain_s + e.publish_drain_s; }), "s");
  report.layer("scbr.subscribe_rps",
               static_cast<double>(size.rounds * kSubsPerRound) /
                   mean([](const Epoch& e) { return e.subscribe_norm_s; }),
               "1/s");
  report.layer("scbr.suppression_ratio",
               adverts > 0 ? static_cast<double>(last.stats.subscriptions_suppressed) / adverts : 0,
               "ratio");
  report.layer("scbr.table_prunes", static_cast<double>(last.stats.table_prunes), "count");
  report.layer("scbr.max_broker_remote_entries", static_cast<double>(last.max_remote), "count");
  report.layer("scbr.hops_per_event", static_cast<double>(last.hops) / events_per_epoch, "count");
  report.layer("scbr.deliveries_per_event", static_cast<double>(last.deliveries) / events_per_epoch,
               "count");

  report.layer("obs.snapshot_s", mean([](const Epoch& e) { return e.snapshot_s; }), "s");
  report.layer("obs.export_s", mean([](const Epoch& e) { return e.export_s; }), "s");
  report.layer("obs.export_bytes", last.export_bytes, "B");

  const double layers_s = ledger.span_seconds("setup") + ledger.span_seconds("preload") +
                          ledger.span_seconds("subscribe") + ledger.span_seconds("publish_batch") +
                          ledger.span_seconds("drain") + ledger.span_seconds("snapshot") +
                          ledger.span_seconds("export");
  const double bench_s = ledger.span_seconds("probe") + ledger.span_seconds("plain") +
                         ledger.span_seconds("oracle");
  report.layer("ledger.bench_s", bench_s / n, "s");
  report.layer("ledger.residual_s", (traced.wall_s - layers_s - bench_s) / n, "s");
  report.layer("trace.overhead_ratio",
               (publish_seconds(traced) / n) /
                       (publish_seconds(untraced) / static_cast<double>(untraced.epochs.size())) -
                   1.0,
               "ratio");
  double sim_ns = 0;
  for (const std::uint64_t ns : last.wave_sim_ns) sim_ns += static_cast<double>(ns);
  std::vector<double> sim_us;
  for (const std::uint64_t ns : last.wave_sim_ns) sim_us.push_back(static_cast<double>(ns) / 1e3);
  report.layer("sim_throughput_rps", events_per_epoch / (sim_ns / 1e9), "1/s");
  report.layer("sim_latency_p99_us", quantile(sim_us, 0.99), "us");
}

}  // namespace perfbench
