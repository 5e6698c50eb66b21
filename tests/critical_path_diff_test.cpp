// Differential tests: obs::critical_path (indexed attribution) against
// the quadratic reference in critical_path_ref.hpp. Both must render the
// same report, to_json() and to_text() byte for byte, on
//   * real cluster snapshots: a chaos-driven SecureStreams pipeline and
//     a distributed MapReduce job with a straggler, each with its fabric
//     delivery log;
//   * seeded synthetic snapshots built to hit every attribution edge:
//     equal (deliver, send) pairs at different log positions (one from
//     the step's own node, one cross-node), duplicate node names,
//     out-of-range delivery destinations, deliveries of other traces,
//     deliveries and flight events exactly at span boundaries, and empty
//     and inverted span windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bigdata/distributed_mapreduce.hpp"
#include "common/fault_injector.hpp"
#include "common/thread_pool.hpp"
#include "critical_path_ref.hpp"
#include "net/fabric.hpp"
#include "obs/cluster.hpp"
#include "streams/pipeline.hpp"

namespace securecloud::obs {
namespace {

using common::FaultArm;
using common::FaultInjector;
using common::FaultKind;

struct Totals {
  std::size_t reports = 0;
  std::uint64_t steps = 0;
  std::uint64_t link_cycles = 0;
  std::uint64_t recovery_events = 0;
};

/// Requires the indexed and the reference analyzer to agree on `opts`.
void expect_same(const ClusterSnapshot& snap, const CriticalPathOptions& opts,
                 const std::string& label, Totals& totals) {
  const auto fast = critical_path(snap, opts);
  const auto ref = critical_path_ref::critical_path(snap, opts);
  ASSERT_EQ(fast.ok(), ref.ok()) << label;
  if (!fast.ok()) {
    EXPECT_EQ(fast.error().message, ref.error().message) << label;
    return;
  }
  EXPECT_EQ(fast->to_json(), ref->to_json()) << label;
  EXPECT_EQ(fast->to_text(), ref->to_text()) << label;
  ++totals.reports;
  totals.steps += fast->steps.size();
  totals.link_cycles += fast->link_cycles_total;
  totals.recovery_events += fast->recovery_events_total;
}

/// Every root's trace, the default root, a missing trace, and each with
/// full, delivery-only and no attribution inputs.
void expect_same_everywhere(const ClusterSnapshot& snap,
                            const std::vector<LinkDelivery>& deliveries,
                            const std::vector<std::string>& names,
                            const std::string& label, Totals& totals) {
  std::set<std::uint64_t> traces = {0, 0xdeadbeefULL};
  for (const NodeSnapshot& node : snap.nodes) {
    for (const SpanRecord& s : node.spans) {
      if (s.parent_id == 0) traces.insert(s.trace_id);
    }
  }
  for (const std::uint64_t trace : traces) {
    const std::string where = label + " trace " + std::to_string(trace);
    CriticalPathOptions opts;
    opts.trace_id = trace;
    expect_same(snap, opts, where + " (no deliveries)", totals);
    opts.deliveries = &deliveries;
    expect_same(snap, opts, where + " (no names)", totals);
    opts.node_names = &names;
    expect_same(snap, opts, where, totals);
  }
}

// ------------------------------------------------------------ real runs

TEST(CriticalPathDiff, StreamsPipelineSnapshotsMatchReference) {
  Totals totals;
  for (const bool faulty : {false, true}) {
    SimClock clock;
    net::Fabric fabric(clock);
    sgx::AttestationService service;
    std::vector<streams::Record> input;
    for (int i = 0; i < 400; ++i) {
      streams::Record r;
      r.key = "s" + std::to_string(i % 7);
      r.timestamp_s = static_cast<std::uint64_t>(i);
      r.value = 0.5 * i + (i % 13);
      input.push_back(std::move(r));
    }
    std::size_t next = 0;
    auto stages =
        streams::PipelineBuilder()
            .source("gen",
                    [&]() -> std::optional<streams::Record> {
                      if (next >= input.size()) return std::nullopt;
                      return input[next++];
                    },
                    200)
            .key_by("shard",
                    [](const streams::Record& r) {
                      return "g" + std::to_string(r.timestamp_s % 3);
                    })
            .window("tumble", {.size_s = 30})
            .map("scale", [](const streams::Record& r) { return r; }, 2'000)
            .sink("collect", [](const streams::Record&, std::uint64_t) {}, 500)
            .build();
    ASSERT_TRUE(stages.ok());
    streams::PipelineConfig config;
    config.credit_window = 16;
    config.grant_batch = 4;
    config.batch_size = 8;
    streams::Pipeline pipeline(fabric, std::move(*stages), config);
    ASSERT_TRUE(pipeline.setup(service).ok());
    fabric.enable_delivery_log();
    FaultInjector faults(31, &clock);
    if (faulty) {
      fabric.set_fault_injector(&faults);
      faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 0.3, .max_fires = 25});
      faults.arm(FaultKind::kNetReorder, FaultArm{.probability = 0.2, .max_fires = 15});
    }
    common::ThreadPool pool(2);
    pipeline.set_pool(&pool);
    ASSERT_TRUE(pipeline.run().ok());

    auto snapshot = pipeline.cluster_snapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.error().message;
    const std::vector<std::string> names = fabric.node_names();
    expect_same_everywhere(*snapshot, fabric.deliveries(), names,
                           faulty ? "streams chaos" : "streams clean", totals);
  }
  // The runs exercise what is compared: a real chain with hops.
  EXPECT_GT(totals.steps, 100u);
  EXPECT_GT(totals.link_cycles, 0u);
}

TEST(CriticalPathDiff, DistributedMapReduceSnapshotsMatchReference) {
  Totals totals;
  for (const bool faulty : {false, true}) {
    SimClock clock;
    net::Fabric fabric(clock);
    FaultInjector faults(0xBEEF, &clock);
    sgx::AttestationService service;
    bigdata::DistributedMapReduceConfig config;
    config.num_workers = 4;
    config.num_reducers = 5;
    config.enable_combiner = true;
    config.map_compute_ns_per_record = 1'000'000;
    bigdata::DistributedMapReduce driver(fabric, config);
    driver.enable_cluster_obs();
    ASSERT_TRUE(driver.setup(service).ok());
    fabric.enable_delivery_log();
    ASSERT_TRUE(fabric.set_compute_skew(driver.worker_node(2), 4).ok());
    fabric.set_fault_injector(&faults);
    if (faulty) {
      faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 0.3, .max_fires = 25});
      faults.arm(FaultKind::kNetReorder, FaultArm{.probability = 0.2, .max_fires = 15});
      faults.arm(FaultKind::kNetPartition, FaultArm{.probability = 0.05, .max_fires = 4});
    }

    std::vector<std::vector<Bytes>> encrypted;
    for (int p = 0; p < 8; ++p) {
      std::vector<Bytes> records;
      for (int line = 0; line < 3; ++line) {
        records.push_back(to_bytes("word" + std::to_string(p % 3) + " word" +
                                   std::to_string(line) + " shared"));
      }
      encrypted.push_back(driver.encrypt_partition(records));
    }
    auto result = driver.run(
        encrypted,
        [](ByteView record) {
          std::vector<bigdata::KeyValue> out;
          std::istringstream in(std::string(record.begin(), record.end()));
          std::string word;
          while (in >> word) out.push_back({word, 1.0});
          return out;
        },
        [](const std::string&, const std::vector<double>& values) {
          double total = 0;
          for (const double v : values) total += v;
          return total;
        });
    ASSERT_TRUE(result.ok()) << result.error().message;

    auto snapshot = driver.collect_cluster_snapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.error().message;
    const std::vector<std::string> names = fabric.node_names();
    expect_same_everywhere(*snapshot, fabric.deliveries(), names,
                           faulty ? "dmr chaos" : "dmr clean", totals);
  }
  EXPECT_GT(totals.steps, 0u);
  EXPECT_GT(totals.link_cycles, 0u);
  EXPECT_GT(totals.recovery_events, 0u);
}

// ------------------------------------------------------ synthetic inputs

struct Synthetic {
  std::vector<NodeSnapshot> nodes;
  std::vector<LinkDelivery> deliveries;
  std::vector<std::string> names;
};

// Fabric ids: "beta" names two ids, "omega" names no snapshot node.
const std::vector<std::string> kFabricNames = {"alpha", "beta",  "gamma",
                                               "beta",  "delta", "omega"};
// Snapshot nodes: "beta" twice, as two fabric nodes sharing a name.
const std::vector<std::string> kSnapshotNames = {"alpha", "beta", "beta", "gamma",
                                                 "delta"};
constexpr std::uint64_t kTraces[] = {7, 9};

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  Synthetic make() {
    Synthetic out;
    out.names = kFabricNames;
    for (const std::string& name : kSnapshotNames) {
      NodeSnapshot node;
      node.node = name;
      out.nodes.push_back(std::move(node));
    }
    for (const std::uint64_t trace : kTraces) {
      const std::uint64_t start = pick(2'000);
      SpanRecord root = span(trace, 0, start, start + 8'000 + pick(4'000));
      if (pick(8) == 0) std::swap(root.start_cycles, root.end_cycles);  // inverted root
      add_span(out, root, 0);
    }
    // Flight noise, in no particular order.
    for (NodeSnapshot& node : out.nodes) {
      for (std::uint64_t i = pick(6); i > 0; --i) flight(node, pick(16'000));
    }
    // Delivery noise: any trace (0 = untraced), any ids, a few
    // destinations past the name table.
    for (std::uint64_t i = pick(40); i > 0; --i) {
      const std::uint64_t deliver = pick(16'000);
      out.deliveries.push_back(
          delivery(pick(3) == 0 ? 0 : kTraces[pick(2)], src(),
                   static_cast<std::uint32_t>(pick(8)), deliver - pick(deliver + 1)));
      out.deliveries.back().deliver_cycles = deliver;
    }
    // The log order is what breaks (deliver, send) ties.
    std::shuffle(out.deliveries.begin(), out.deliveries.end(), rng_);
    for (NodeSnapshot& node : out.nodes) {
      std::shuffle(node.flight.begin(), node.flight.end(), rng_);
    }
    return out;
  }

 private:
  std::uint64_t pick(std::uint64_t n) { return n == 0 ? 0 : rng_() % n; }
  std::uint32_t src() { return static_cast<std::uint32_t>(pick(kFabricNames.size())); }

  SpanRecord span(std::uint64_t trace, std::uint64_t parent, std::uint64_t start,
                  std::uint64_t end) {
    SpanRecord s;
    s.trace_id = trace;
    s.span_id = next_id_++;
    s.parent_id = parent;
    s.name = "op" + std::to_string(pick(4));
    s.start_cycles = start;
    s.end_cycles = end;
    return s;
  }

  static LinkDelivery delivery(std::uint64_t trace, std::uint32_t from, std::uint32_t to,
                               std::uint64_t send) {
    LinkDelivery d;
    d.trace_id = trace;
    d.src = from;
    d.dst = to;
    d.send_cycles = send;
    d.deliver_cycles = send;
    d.bytes = 64;
    return d;
  }

  static void flight(NodeSnapshot& node, std::uint64_t at) {
    FlightEvent ev;
    ev.seq = node.flight.size();
    ev.at_cycles = at;
    ev.category = "nack";
    node.flight.push_back(std::move(ev));
    ++node.flight_total;
  }

  // Fabric ids whose name is `name` (none for a name only spans carry).
  static std::vector<std::uint32_t> ids_named(const std::string& name) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < kFabricNames.size(); ++id) {
      if (kFabricNames[id] == name) ids.push_back(id);
    }
    return ids;
  }

  void add_span(Synthetic& out, SpanRecord s, int depth) {
    const std::size_t at = pick(out.nodes.size());
    NodeSnapshot& node = out.nodes[at];
    const std::uint64_t lo = std::min(s.start_cycles, s.end_cycles);
    const std::uint64_t hi = std::max(s.start_cycles, s.end_cycles);

    // Flight events exactly on the window's edges and just outside.
    if (pick(2) == 0) flight(node, s.start_cycles);
    if (pick(2) == 0) flight(node, s.end_cycles);
    if (pick(4) == 0 && s.start_cycles > 0) flight(node, s.start_cycles - 1);
    if (pick(4) == 0) flight(node, s.end_cycles + 1);

    if (s.parent_id != 0) add_inbound(out, node.node, s);

    if (depth < 3) {
      for (std::uint64_t k = pick(5); k > 0; --k) {
        const std::uint64_t cs = lo + pick(hi - lo + 1);
        std::uint64_t ce = cs + pick(hi - cs + 1);
        if (pick(10) == 0) ce = cs;                   // empty window
        if (pick(12) == 0) ce = hi + 1 + pick(500);   // overruns its parent
        if (pick(15) == 0 && cs > 0) ce = cs - 1 - pick(cs);  // inverted window
        add_span(out, span(s.trace_id, s.span_id, cs, ce), depth + 1);
      }
    }
    node.spans.push_back(std::move(s));
  }

  // Deliveries into the span's node around its start: at it, just
  // before and just after, equal (deliver, send) pairs from the node
  // itself and from elsewhere in both log orders, and the same shapes
  // for other traces and out-of-range destinations.
  void add_inbound(Synthetic& out, const std::string& node, const SpanRecord& s) {
    const std::vector<std::uint32_t> ids = ids_named(node);
    const std::uint64_t start = s.start_cycles;
    for (std::uint64_t k = 1 + pick(3); k > 0; --k) {
      const std::uint64_t deliver = start >= 2 ? start - pick(3) : start;
      const std::uint64_t send = deliver - pick(std::min<std::uint64_t>(deliver, 400) + 1);
      const std::uint32_t dst = ids[pick(ids.size())];
      const std::uint64_t trace = pick(6) == 0 ? kTraces[pick(2)] ^ 1 : s.trace_id;
      LinkDelivery d = delivery(trace, src(), dst, send);
      d.deliver_cycles = deliver;
      if (pick(3) == 0) {
        // A tie: one copy from a same-named node, one from another.
        LinkDelivery same = d;
        same.src = ids[pick(ids.size())];
        LinkDelivery cross = d;
        cross.src = node == "alpha" ? 2 : 0;  // the id of "gamma" or "alpha"
        out.deliveries.push_back(pick(2) == 0 ? same : cross);
        out.deliveries.push_back(out.deliveries.back().src == same.src ? cross : same);
      } else {
        out.deliveries.push_back(d);
      }
      if (pick(3) == 0) {
        LinkDelivery late = d;
        late.deliver_cycles = start + 1 + pick(3);
        out.deliveries.push_back(late);
      }
      if (pick(4) == 0) {
        LinkDelivery stray = d;
        stray.dst = static_cast<std::uint32_t>(kFabricNames.size() + pick(3));
        stray.deliver_cycles = start;
        out.deliveries.push_back(stray);
      }
    }
  }

  std::mt19937_64 rng_;
  std::uint64_t next_id_ = 1;
};

TEST(CriticalPathDiff, SeededSyntheticSnapshotsMatchReference) {
  Totals totals;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Synthetic in = Generator(seed).make();
    const ClusterSnapshot snap = merge_snapshots(std::move(in.nodes));
    expect_same_everywhere(snap, in.deliveries, in.names,
                           "seed " + std::to_string(seed), totals);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(totals.steps, 1'000u);
  EXPECT_GT(totals.link_cycles, 0u);
  EXPECT_GT(totals.recovery_events, 0u);
}

// ------------------------------------------------------ out-of-range src

TEST(CriticalPathDiff, OutOfRangeSourceIsNeverTheStepsNode) {
  // The winning delivery names a source the name table does not cover:
  // the analyzer must not read past the table, and a source it cannot
  // name is not the step's own node, so the hop is charged as a link.
  NodeSnapshot a;
  a.node = "a";
  NodeSnapshot b;
  b.node = "b";
  SpanRecord root;
  root.trace_id = 5;
  root.span_id = 1;
  root.name = "root";
  root.start_cycles = 0;
  root.end_cycles = 100;
  a.spans.push_back(root);
  SpanRecord child = root;
  child.span_id = 2;
  child.parent_id = 1;
  child.name = "child";
  child.start_cycles = 40;
  child.end_cycles = 90;
  b.spans.push_back(child);
  const ClusterSnapshot snap = merge_snapshots({a, b});

  const std::vector<std::string> names = {"a", "b"};
  std::vector<LinkDelivery> deliveries(1);
  deliveries[0].trace_id = 5;
  deliveries[0].src = 1'000'000;  // far past names.size()
  deliveries[0].dst = 1;
  deliveries[0].send_cycles = 25;
  deliveries[0].deliver_cycles = 40;
  CriticalPathOptions opts;
  opts.deliveries = &deliveries;
  opts.node_names = &names;
  const auto report = critical_path(snap, opts);
  ASSERT_TRUE(report.ok()) << report.error().message;
  ASSERT_EQ(report->steps.size(), 2u);
  EXPECT_EQ(report->steps[1].node, "b");
  EXPECT_EQ(report->steps[1].link_cycles, 15u);
  EXPECT_EQ(report->link_cycles_total, 15u);
}

}  // namespace
}  // namespace securecloud::obs
