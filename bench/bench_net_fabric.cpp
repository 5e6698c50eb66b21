// Cluster fabric — event throughput and distributed MapReduce scaling.
//
// Part 1: raw fabric message rate (one lossless link, 512 B messages)
// — how fast the discrete-event loop dispatches, plus the simulated
// network time those messages charged.
// Part 2: contended ingress — N sender threads hammer one Fabric's
// send() concurrently (the path that used to serialize on the fabric
// mutex), then a single consumer drains. This measures the lock-free
// win at the contention point, not just end-to-end.
// Part 3: the distributed MapReduce driver over clusters of 1/2/4/8
// workers: same encrypted word-count job per cluster size, reporting
// wall seconds, simulated milliseconds (latency + serialization across
// the mesh plus enclave compute), and shuffle traffic. More workers
// shrink per-worker map work but add shuffle hops — the classic
// distributed-job trade the paper's evaluation sweeps.
//
// Part 4: attested bring-up — full AttestedSession handshakes on one
// fabric (X25519 ephemerals, quote signing and verification both ways),
// reported as handshakes_per_sec so the CI perf gate covers the
// Curve25519 code every enclave pays before it holds a key.
//
// Flags: --threads N (contended-ingress sender count, default 8),
// --smoke (shrink message counts for CI).
// Last line: one securecloud.bench.v1 record (CI's bench smoke step
// validates its shape).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "bench_json.hpp"
#include "bigdata/distributed_mapreduce.hpp"
#include "bigdata/mapreduce.hpp"
#include "common/sim_clock.hpp"
#include "net/fabric.hpp"
#include "net/session.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "sgx/attestation.hpp"
#include "sgx/platform.hpp"

namespace {

using namespace securecloud;

int g_threads = 8;      // contended-ingress sender threads
bool g_smoke = false;  // CI smoke: small message counts, same output shape

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void bench_message_rate() {
  SimClock clock;
  net::Fabric fabric(clock);
  fabric.enable_delivery_log();
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  (void)fabric.connect(a, b);
  std::uint64_t received = 0;
  (void)fabric.set_handler(b, 1, [&](const net::Message&) { ++received; });

  const std::size_t kMessages = g_smoke ? 2'000 : 50'000;
  const Bytes payload(512, 0xA5);
  const double secs = wall_seconds([&] {
    for (std::size_t i = 0; i < kMessages; ++i) {
      (void)fabric.send(a, b, 1, payload);
    }
    fabric.run_until_idle();
  });

  // Simulated per-message latency from the delivery log: send-to-deliver
  // cycles bucketed into the log2 histogram, percentiles via quantile().
  obs::Histogram delivery_latency_cycles;
  for (const auto& d : fabric.deliveries()) {
    delivery_latency_cycles.observe(d.deliver_cycles - d.send_cycles);
  }

  std::printf(
      "{\"bench\":\"net_fabric_rate\",\"messages\":%zu,\"seconds\":%.4f,"
      "\"msgs_per_sec\":%.0f,\"sim_ms\":%.3f,"
      "\"delivery_latency_p50_cycles\":%.0f,"
      "\"delivery_latency_p99_cycles\":%.0f}\n",
      kMessages, secs, static_cast<double>(received) / secs,
      static_cast<double>(fabric.now_ns()) / 1e6,
      delivery_latency_cycles.quantile(0.50),
      delivery_latency_cycles.quantile(0.99));
}

// N producer threads hammer send() into one fabric concurrently — the
// contention point that used to funnel through the fabric mutex. The
// consumer drains once the senders join (schedule determinism is
// surrendered under concurrent send; throughput and conservation are
// what this mode measures). Reports ingress rate (send() calls/sec
// while contended) separately from the end-to-end rate.
void bench_contended_ingress() {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId hub = fabric.add_node("hub");
  std::vector<net::NodeId> senders;
  const int nthreads = g_threads < 1 ? 1 : g_threads;
  for (int t = 0; t < nthreads; ++t) {
    senders.push_back(fabric.add_node("s" + std::to_string(t)));
    (void)fabric.connect(senders.back(), hub);
  }
  std::uint64_t received = 0;
  (void)fabric.set_handler(hub, 1, [&](const net::Message&) { ++received; });

  const std::size_t per_thread = g_smoke ? 2'000 : 40'000;
  const Bytes payload(512, 0x5A);
  double ingress_secs = 0;
  const double secs = wall_seconds([&] {
    std::vector<std::thread> threads;
    const auto ingress_start = std::chrono::steady_clock::now();
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < per_thread; ++i) {
          (void)fabric.send(senders[static_cast<std::size_t>(t)], hub, 1, payload);
        }
      });
    }
    for (auto& th : threads) th.join();
    ingress_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - ingress_start)
            .count();
    fabric.run_until_idle();
  });

  const std::size_t total = per_thread * static_cast<std::size_t>(nthreads);
  std::printf(
      "{\"bench\":\"net_fabric_contended\",\"senders\":%d,\"messages\":%zu,"
      "\"ingress_seconds\":%.4f,\"sends_per_sec\":%.0f,\"seconds\":%.4f,"
      "\"msgs_per_sec\":%.0f,\"delivered\":%llu}\n",
      nthreads, total, ingress_secs, static_cast<double>(total) / ingress_secs, secs,
      static_cast<double>(received) / secs,
      static_cast<unsigned long long>(received));
}

std::vector<std::vector<Bytes>> synth_partitions(std::size_t partitions,
                                                 std::size_t records_each) {
  std::vector<std::vector<Bytes>> out(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    for (std::size_t r = 0; r < records_each; ++r) {
      std::string line;
      for (int w = 0; w < 8; ++w) {
        line += "word" + std::to_string((p * 131 + r * 17 + w * 7) % 64) + " ";
      }
      out[p].push_back(Bytes(line.begin(), line.end()));
    }
  }
  return out;
}

void bench_cluster_scaling() {
  const auto partitions = synth_partitions(g_smoke ? 8 : 32, g_smoke ? 10 : 30);
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    SimClock clock;
    net::Fabric fabric(clock);
    obs::Registry registry;
    fabric.set_obs(&registry);
    sgx::AttestationService service;

    bigdata::DistributedMapReduceConfig config;
    config.num_workers = workers;
    config.num_reducers = 8;
    config.enable_combiner = true;
    bigdata::DistributedMapReduce driver(fabric, config);
    driver.set_obs(&registry);
    if (Status s = driver.setup(service); !s.ok()) {
      std::printf("{\"bench\":\"net_fabric_cluster\",\"error\":\"%s\"}\n",
                  s.error().message.c_str());
      return;
    }

    std::vector<std::vector<Bytes>> encrypted;
    for (const auto& p : partitions) encrypted.push_back(driver.encrypt_partition(p));

    bigdata::JobResult result;
    const double secs = wall_seconds([&] {
      auto run = driver.run(
          encrypted,
          [](ByteView record) {
            std::vector<bigdata::KeyValue> pairs;
            std::size_t start = 0;
            const std::string text(record.begin(), record.end());
            while (start < text.size()) {
              const std::size_t end = text.find(' ', start);
              const std::size_t stop = end == std::string::npos ? text.size() : end;
              if (stop > start) pairs.push_back({text.substr(start, stop - start), 1.0});
              start = stop + 1;
            }
            return pairs;
          },
          [](const std::string&, const std::vector<double>& values) {
            double total = 0;
            for (double v : values) total += v;
            return total;
          });
      if (run.ok()) result = std::move(*run);
    });

    std::printf(
        "{\"bench\":\"net_fabric_cluster\",\"workers\":%zu,\"seconds\":%.4f,"
        "\"sim_ms\":%.3f,\"distinct_keys\":%zu,\"input_records\":%zu,"
        "\"shuffle_bytes\":%zu,\"net_messages\":%llu}\n",
        workers, secs,
        static_cast<double>(result.stats.simulated_cycles) /
            (clock.frequency_ghz() * 1e9) * 1e3,
        result.output.size(), result.stats.input_records,
        result.stats.shuffle_bytes,
        static_cast<unsigned long long>(fabric.stats().messages_sent));

    if (workers == 8) {
      // The largest cluster's full registry backs the schema line.
      benchutil::emit_bench_json("net_fabric", static_cast<std::size_t>(g_threads),
                                 registry);
    }
  }
}

// Cluster-obs mode on a small cluster: merged per-node trace export
// plus the critical-path breakdown of one job (CI validates the
// securecloud.trace.v2 line's shape).
void bench_cluster_trace() {
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;

  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 4;
  config.num_reducers = 4;
  config.enable_combiner = true;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();
  if (Status s = driver.setup(service); !s.ok()) {
    std::printf("{\"bench\":\"net_fabric_trace\",\"error\":\"%s\"}\n",
                s.error().message.c_str());
    return;
  }
  fabric.enable_delivery_log();
  (void)fabric.set_compute_skew(driver.worker_node(1), 3);  // one straggler

  const auto partitions = synth_partitions(8, 12);
  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& p : partitions) encrypted.push_back(driver.encrypt_partition(p));
  auto run = driver.run(
      encrypted,
      [](ByteView record) {
        std::vector<bigdata::KeyValue> pairs;
        std::size_t start = 0;
        const std::string text(record.begin(), record.end());
        while (start < text.size()) {
          const std::size_t end = text.find(' ', start);
          const std::size_t stop = end == std::string::npos ? text.size() : end;
          if (stop > start) pairs.push_back({text.substr(start, stop - start), 1.0});
          start = stop + 1;
        }
        return pairs;
      },
      [](const std::string&, const std::vector<double>& values) {
        double total = 0;
        for (double v : values) total += v;
        return total;
      });
  if (!run.ok()) {
    std::printf("{\"bench\":\"net_fabric_trace\",\"error\":\"%s\"}\n",
                run.error().message.c_str());
    return;
  }

  auto snapshot = driver.collect_cluster_snapshot();
  if (!snapshot.ok()) return;
  std::printf("%s\n", snapshot->to_trace_json().c_str());

  const std::vector<std::string> names = fabric.node_names();
  obs::CriticalPathOptions opts;
  opts.deliveries = &fabric.deliveries();
  opts.node_names = &names;
  if (auto report = obs::critical_path(*snapshot, opts); report.ok()) {
    std::printf("%s\n", report->to_json().c_str());
  }
}

// Worker-death recovery cost: the same encrypted job with and without
// a mid-map worker kill. Reports how long recovery adds in simulated
// time (death detection + task re-execution + re-placement) and the
// wall rate of fully recovered jobs. The recovered output must match
// the failure-free baseline byte for byte.
void bench_worker_recovery() {
  const auto partitions = synth_partitions(8, g_smoke ? 6 : 12);
  const auto word_map = [](ByteView record) {
    std::vector<bigdata::KeyValue> pairs;
    std::size_t start = 0;
    const std::string text(record.begin(), record.end());
    while (start < text.size()) {
      const std::size_t end = text.find(' ', start);
      const std::size_t stop = end == std::string::npos ? text.size() : end;
      if (stop > start) pairs.push_back({text.substr(start, stop - start), 1.0});
      start = stop + 1;
    }
    return pairs;
  };
  const auto sum = [](const std::string&, const std::vector<double>& values) {
    double total = 0;
    for (double v : values) total += v;
    return total;
  };

  // One run: fresh fabric, optional mid-map kill of worker 1.
  struct Outcome {
    bigdata::JobResult result;
    std::uint64_t deaths = 0;
    std::uint64_t reexecuted = 0;
    bool ok = false;
  };
  const auto run_once = [&](bool kill) {
    Outcome out;
    SimClock clock;
    net::Fabric fabric(clock);
    sgx::AttestationService service;
    bigdata::DistributedMapReduceConfig config;
    config.num_workers = 4;
    config.num_reducers = 8;
    config.enable_combiner = true;
    config.map_compute_ns_per_record = 200'000;
    bigdata::DistributedMapReduce driver(fabric, config);
    driver.enable_cluster_obs();
    if (!driver.setup(service).ok()) return out;
    std::vector<std::vector<Bytes>> encrypted;
    for (const auto& p : partitions) encrypted.push_back(driver.encrypt_partition(p));
    if (kill) driver.schedule_worker_kill(1, 1'000'000);
    auto run = driver.run(encrypted, word_map, sum);
    if (!run.ok()) return out;
    out.result = std::move(*run);
    auto& registry = driver.coordinator_obs()->registry;
    out.deaths = registry.counter("dist_mapreduce_worker_deaths_total").value();
    out.reexecuted =
        registry.counter("dist_mapreduce_tasks_reexecuted_total").value();
    out.ok = true;
    return out;
  };

  const Outcome clean = run_once(false);
  if (!clean.ok) {
    std::printf("{\"bench\":\"net_fabric_recovery\",\"error\":\"baseline failed\"}\n");
    return;
  }

  const std::size_t kJobs = g_smoke ? 3 : 10;
  Outcome last;
  std::uint64_t deaths = 0, reexecuted = 0;
  bool outputs_match = true;
  const double secs = wall_seconds([&] {
    for (std::size_t i = 0; i < kJobs; ++i) {
      last = run_once(true);
      if (!last.ok || last.result.output != clean.result.output) {
        outputs_match = false;
        return;
      }
      deaths += last.deaths;
      reexecuted += last.reexecuted;
    }
  });
  if (!outputs_match) {
    std::printf(
        "{\"bench\":\"net_fabric_recovery\",\"error\":\"recovered output "
        "diverged from failure-free run\"}\n");
    return;
  }

  const double ghz = SimClock().frequency_ghz();
  const double clean_ms =
      static_cast<double>(clean.result.stats.simulated_cycles) / (ghz * 1e9) * 1e3;
  const double chaos_ms =
      static_cast<double>(last.result.stats.simulated_cycles) / (ghz * 1e9) * 1e3;
  std::printf(
      "{\"bench\":\"net_fabric_recovery\",\"jobs\":%zu,\"seconds\":%.4f,"
      "\"recovered_jobs_per_sec\":%.1f,\"deaths\":%llu,\"tasks_reexecuted\":%llu,"
      "\"sim_ms_clean\":%.3f,\"sim_ms_recovered\":%.3f,\"sim_recovery_ms\":%.3f}\n",
      kJobs, secs, static_cast<double>(kJobs) / secs,
      static_cast<unsigned long long>(deaths),
      static_cast<unsigned long long>(reexecuted), clean_ms, chaos_ms,
      chaos_ms - clean_ms);
}

// One initiator/responder pair on two platforms: start() and then
// rehandshake() repeatedly, each a full mutual attested handshake.
void bench_attested_handshakes() {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  (void)fabric.connect(a, b);
  sgx::AttestationService service;
  sgx::PlatformConfig ca;
  ca.platform_id = "platform-a";
  ca.entropy_seed = 11;
  sgx::PlatformConfig cb;
  cb.platform_id = "platform-b";
  cb.entropy_seed = 22;
  sgx::Platform platform_a(ca);
  sgx::Platform platform_b(cb);
  platform_a.provision(service);
  platform_b.provision(service);
  const sgx::EnclaveImage image = bigdata::mapreduce_worker_image();
  auto config = [&](net::NodeId self, net::NodeId peer, sgx::Platform& platform) {
    net::AttestedSession::Config c;
    c.fabric = &fabric;
    c.self = self;
    c.peer = peer;
    c.enclave = platform.create_enclave(image).value();
    c.platform = &platform;
    c.attestation = &service;
    return c;
  };
  net::AttestedSession responder(net::AttestedSession::Role::kResponder,
                                 config(b, a, platform_b));
  net::AttestedSession initiator(net::AttestedSession::Role::kInitiator,
                                 config(a, b, platform_a));
  if (!responder.bind().ok() || !initiator.bind().ok()) {
    std::printf("{\"bench\":\"net_fabric_handshake\",\"error\":\"bind failed\"}\n");
    return;
  }

  const std::size_t kHandshakes = g_smoke ? 64 : 512;
  bool ok = true;
  const double secs = wall_seconds([&] {
    for (std::size_t i = 0; i < kHandshakes && ok; ++i) {
      ok = (i == 0 ? initiator.start() : initiator.rehandshake()).ok();
      fabric.run_until_idle();
      ok = ok && initiator.established() && responder.established();
    }
  });
  if (!ok) {
    std::printf("{\"bench\":\"net_fabric_handshake\",\"error\":\"handshake failed\"}\n");
    return;
  }
  std::printf(
      "{\"bench\":\"net_fabric_handshake\",\"handshakes\":%zu,\"seconds\":%.4f,"
      "\"handshakes_per_sec\":%.1f}\n",
      kHandshakes, secs, static_cast<double>(kHandshakes) / secs);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_threads = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      g_threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    }
  }
  bench_message_rate();
  bench_contended_ingress();
  bench_cluster_trace();
  bench_worker_recovery();
  bench_attested_handshakes();
  bench_cluster_scaling();  // last: CI expects the bench.v1 line last
  return 0;
}
