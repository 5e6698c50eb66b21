#include "obs/cluster.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace securecloud::obs {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x4f425332;  // "OBS2"

void put_i64(Bytes& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

bool get_i64(ByteReader& in, std::int64_t& v) {
  std::uint64_t raw = 0;
  if (!in.get_u64(raw)) return false;
  v = static_cast<std::int64_t>(raw);
  return true;
}

struct MergedSpan {
  const SpanRecord* span = nullptr;
  const std::string* node = nullptr;
};

// Global view of every span, in the total order the v2 export uses:
// (start_cycles, end_cycles, span_id). Span ids are unique cluster-wide
// (per-node id prefixes), so the order is deterministic.
std::vector<MergedSpan> merged_spans(const ClusterSnapshot& snap) {
  std::vector<MergedSpan> all;
  for (const NodeSnapshot& node : snap.nodes) {
    for (const SpanRecord& s : node.spans) all.push_back({&s, &node.node});
  }
  std::sort(all.begin(), all.end(), [](const MergedSpan& a, const MergedSpan& b) {
    if (a.span->start_cycles != b.span->start_cycles) {
      return a.span->start_cycles < b.span->start_cycles;
    }
    if (a.span->end_cycles != b.span->end_cycles) {
      return a.span->end_cycles < b.span->end_cycles;
    }
    return a.span->span_id < b.span->span_id;
  });
  return all;
}

}  // namespace

NodeSnapshot NodeObs::snapshot() const {
  NodeSnapshot snap;
  snap.node = node;
  snap.metrics = registry.snapshot();
  snap.spans = tracer.finished();
  snap.flight = flight.events();
  snap.flight_total = flight.total_recorded();
  return snap;
}

Bytes serialize_node_snapshot(const NodeSnapshot& snap) {
  Bytes out;
  put_u32(out, kSnapshotMagic);
  put_str(out, snap.node);

  put_u32(out, static_cast<std::uint32_t>(snap.metrics.counters.size()));
  for (const auto& [name, value] : snap.metrics.counters) {
    put_str(out, name);
    put_u64(out, value);
  }
  put_u32(out, static_cast<std::uint32_t>(snap.metrics.gauges.size()));
  for (const auto& [name, value] : snap.metrics.gauges) {
    put_str(out, name);
    put_i64(out, value);
  }
  put_u32(out, static_cast<std::uint32_t>(snap.metrics.histograms.size()));
  for (const auto& [name, hist] : snap.metrics.histograms) {
    put_str(out, name);
    put_u64(out, hist.count);
    put_u64(out, hist.sum);
    put_u32(out, static_cast<std::uint32_t>(hist.buckets.size()));
    for (const auto& [upper, count] : hist.buckets) {
      put_u64(out, upper);
      put_u64(out, count);
    }
  }

  put_u32(out, static_cast<std::uint32_t>(snap.spans.size()));
  for (const SpanRecord& s : snap.spans) {
    put_u64(out, s.trace_id);
    put_u64(out, s.span_id);
    put_u64(out, s.parent_id);
    put_str(out, s.name);
    put_u64(out, s.start_cycles);
    put_u64(out, s.end_cycles);
    put_u32(out, static_cast<std::uint32_t>(s.attributes.size()));
    for (const auto& [key, value] : s.attributes) {
      put_str(out, key);
      put_str(out, value);
    }
  }

  put_u32(out, static_cast<std::uint32_t>(snap.flight.size()));
  for (const FlightEvent& ev : snap.flight) {
    put_u64(out, ev.seq);
    put_u64(out, ev.at_cycles);
    put_str(out, ev.category);
    put_str(out, ev.detail);
  }
  put_u64(out, snap.flight_total);
  return out;
}

Result<NodeSnapshot> deserialize_node_snapshot(ByteView wire) {
  ByteReader in(wire);
  const auto fail = [] {
    return Error::protocol("node snapshot: truncated or malformed");
  };
  std::uint32_t magic = 0;
  if (!in.get_u32(magic) || magic != kSnapshotMagic) return fail();

  NodeSnapshot snap;
  if (!in.get_str(snap.node)) return fail();

  std::uint32_t n = 0;
  if (!in.get_u32(n)) return fail();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (!in.get_str(name) || !in.get_u64(value)) return fail();
    snap.metrics.counters.emplace(std::move(name), value);
  }
  if (!in.get_u32(n)) return fail();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    std::int64_t value = 0;
    if (!in.get_str(name) || !get_i64(in, value)) return fail();
    snap.metrics.gauges.emplace(std::move(name), value);
  }
  if (!in.get_u32(n)) return fail();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    HistogramSnapshot hist;
    std::uint32_t buckets = 0;
    if (!in.get_str(name) || !in.get_u64(hist.count) || !in.get_u64(hist.sum) ||
        !in.get_u32(buckets)) {
      return fail();
    }
    // A corrupt count must not drive a huge allocation: each bucket
    // entry takes at least 16 wire bytes, so any claimed count beyond
    // remaining()/16 is provably malformed.
    if (buckets > in.remaining() / 16) return fail();
    hist.buckets.reserve(buckets);
    for (std::uint32_t b = 0; b < buckets; ++b) {
      std::uint64_t upper = 0;
      std::uint64_t count = 0;
      if (!in.get_u64(upper) || !in.get_u64(count)) return fail();
      hist.buckets.emplace_back(upper, count);
    }
    snap.metrics.histograms.emplace(std::move(name), std::move(hist));
  }

  if (!in.get_u32(n)) return fail();
  // Minimum span wire size: 3×u64 ids + empty name + 2×u64 stamps + attr
  // count = 48 bytes. Bound before reserving (corrupt-count hardening).
  if (n > in.remaining() / 48) return fail();
  snap.spans.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SpanRecord s;
    std::uint32_t attrs = 0;
    if (!in.get_u64(s.trace_id) || !in.get_u64(s.span_id) ||
        !in.get_u64(s.parent_id) || !in.get_str(s.name) ||
        !in.get_u64(s.start_cycles) || !in.get_u64(s.end_cycles) ||
        !in.get_u32(attrs)) {
      return fail();
    }
    if (attrs > in.remaining() / 8) return fail();  // 2 empty strings = 8B
    s.attributes.reserve(attrs);
    for (std::uint32_t a = 0; a < attrs; ++a) {
      std::string key;
      std::string value;
      if (!in.get_str(key) || !in.get_str(value)) return fail();
      s.attributes.emplace_back(std::move(key), std::move(value));
    }
    snap.spans.push_back(std::move(s));
  }

  if (!in.get_u32(n)) return fail();
  // Minimum flight event: 2×u64 + 2 empty strings = 24 bytes.
  if (n > in.remaining() / 24) return fail();
  snap.flight.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    FlightEvent ev;
    if (!in.get_u64(ev.seq) || !in.get_u64(ev.at_cycles) ||
        !in.get_str(ev.category) || !in.get_str(ev.detail)) {
      return fail();
    }
    snap.flight.push_back(std::move(ev));
  }
  if (!in.get_u64(snap.flight_total)) return fail();
  if (in.remaining() != 0) return fail();
  return snap;
}

ClusterSnapshot merge_snapshots(std::vector<NodeSnapshot> nodes) {
  ClusterSnapshot snap;
  snap.nodes = std::move(nodes);
  std::stable_sort(
      snap.nodes.begin(), snap.nodes.end(),
      [](const NodeSnapshot& a, const NodeSnapshot& b) { return a.node < b.node; });
  return snap;
}

std::string ClusterSnapshot::to_obs_json() const {
  std::string out = "{\"schema\":\"securecloud.obs.v2\",\"nodes\":[";
  bool first = true;
  for (const NodeSnapshot& node : nodes) {
    if (!first) out += ',';
    first = false;
    out += "{\"node\":";
    append_json_string(out, node.node);
    out += ",\"obs\":";
    append_snapshot_json(out, node.metrics);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string ClusterSnapshot::to_trace_json() const {
  std::string out = "{\"schema\":\"securecloud.trace.v2\",\"spans\":[";
  bool first = true;
  for (const MergedSpan& m : merged_spans(*this)) {
    const SpanRecord& s = *m.span;
    if (!first) out += ',';
    first = false;
    out += "{\"node\":";
    append_json_string(out, *m.node);
    out += ",\"trace\":";
    append_json_int(out, s.trace_id);
    out += ",\"id\":";
    append_json_int(out, s.span_id);
    out += ",\"parent\":";
    append_json_int(out, s.parent_id);
    out += ",\"name\":";
    append_json_string(out, s.name);
    out += ",\"start_cycles\":";
    append_json_int(out, s.start_cycles);
    out += ",\"end_cycles\":";
    append_json_int(out, s.end_cycles);
    out += ",\"attrs\":{";
    bool first_attr = true;
    for (const auto& [key, value] : s.attributes) {
      if (!first_attr) out += ',';
      first_attr = false;
      append_json_string(out, key);
      out += ':';
      append_json_string(out, value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string ClusterSnapshot::to_flight_json() const {
  std::string out = "{\"schema\":\"securecloud.flight.v2\",\"nodes\":[";
  bool first = true;
  for (const NodeSnapshot& node : nodes) {
    if (!first) out += ',';
    first = false;
    out += "{\"node\":";
    append_json_string(out, node.node);
    out += ",\"flight\":{";
    const std::uint64_t retained = node.flight.size();
    append_flight_events_json(
        out, node.flight,
        node.flight_total >= retained ? node.flight_total - retained : 0);
    out += "}}";
  }
  out += "]}";
  return out;
}

namespace {

// One contiguous stretch of chain time charged to a span.
struct ChainSegment {
  const MergedSpan* owner = nullptr;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::size_t depth = 0;
};

// One node name's attribution index for critical_path().
struct NodeIndex {
  std::vector<const LinkDelivery*> inbound;  // by (deliver, send), stable
  std::vector<std::uint64_t> flight_at;      // sorted flight stamps
};

bool delivered_before(const LinkDelivery* a, const LinkDelivery* b) {
  if (a->deliver_cycles != b->deliver_cycles) {
    return a->deliver_cycles < b->deliver_cycles;
  }
  return a->send_cycles < b->send_cycles;
}

// Backward walk: the chain charges [lo, hi) of `span`'s window to the
// deepest child covering each instant, walking children latest-end
// first. Whatever no child covers is the span's own (self) time.
void walk(const MergedSpan& span, std::uint64_t lo, std::uint64_t hi,
          std::size_t depth,
          const std::map<std::uint64_t, std::vector<const MergedSpan*>>& children,
          std::vector<ChainSegment>& out) {
  std::uint64_t t = hi;
  const auto it = children.find(span.span->span_id);
  if (it != children.end()) {
    // Children latest-end first; ties broken on span_id descending so
    // the walk is deterministic.
    std::vector<const MergedSpan*> kids = it->second;
    std::sort(kids.begin(), kids.end(), [](const MergedSpan* a, const MergedSpan* b) {
      if (a->span->end_cycles != b->span->end_cycles) {
        return a->span->end_cycles > b->span->end_cycles;
      }
      return a->span->span_id > b->span->span_id;
    });
    for (const MergedSpan* kid : kids) {
      if (t <= lo) break;
      const std::uint64_t ke = std::min(kid->span->end_cycles, t);
      const std::uint64_t ks = std::max(kid->span->start_cycles, lo);
      if (ke <= ks) continue;  // outside the remaining window
      if (ke < t) out.push_back({&span, ke, t, depth});  // self gap after kid
      walk(*kid, ks, ke, depth + 1, children, out);
      t = ks;
    }
  }
  if (t > lo) out.push_back({&span, lo, t, depth});
}

}  // namespace

Result<CriticalPathReport> critical_path(const ClusterSnapshot& snap,
                                         const CriticalPathOptions& opts) {
  const std::vector<MergedSpan> all = merged_spans(snap);

  const MergedSpan* root = nullptr;
  for (const MergedSpan& m : all) {
    if (m.span->parent_id != 0) continue;
    if (opts.trace_id != 0 && m.span->trace_id != opts.trace_id) continue;
    root = &m;
    break;
  }
  if (root == nullptr) {
    return Error::not_found("critical_path: no root span for trace");
  }

  // Children lists for the root's trace only, keyed by parent span id.
  std::map<std::uint64_t, std::vector<const MergedSpan*>> children;
  for (const MergedSpan& m : all) {
    if (m.span->trace_id != root->span->trace_id) continue;
    if (m.span->parent_id == 0) continue;
    children[m.span->parent_id].push_back(&m);
  }

  std::vector<ChainSegment> segments;
  walk(*root, root->span->start_cycles, root->span->end_cycles, 0, children,
       segments);
  // walk() emits segments latest-first; flip to timeline order.
  std::reverse(segments.begin(), segments.end());

  CriticalPathReport report;
  report.trace_id = root->span->trace_id;
  report.total_cycles = root->span->end_cycles - root->span->start_cycles;

  // Aggregate contiguous per-span: one step per span, in order of first
  // appearance on the chain.
  std::map<std::uint64_t, std::size_t> step_of;  // span_id -> index
  for (const ChainSegment& seg : segments) {
    const std::uint64_t id = seg.owner->span->span_id;
    auto it = step_of.find(id);
    if (it == step_of.end()) {
      CriticalPathStep step;
      step.node = *seg.owner->node;
      step.name = seg.owner->span->name;
      step.span_id = id;
      step.start_cycles = seg.owner->span->start_cycles;
      step.end_cycles = seg.owner->span->end_cycles;
      step.depth = seg.depth;
      step.self_cycles = seg.hi - seg.lo;
      step_of.emplace(id, report.steps.size());
      report.steps.push_back(std::move(step));
    } else {
      report.steps[it->second].self_cycles += seg.hi - seg.lo;
    }
  }

  // Per node name (fabric NodeIds and snapshot nodes may share a name):
  // this trace's deliveries into the node and every flight stamp on it.
  std::unordered_map<std::string_view, NodeIndex> by_name;
  for (const NodeSnapshot& node : snap.nodes) {
    std::vector<std::uint64_t>& at = by_name[node.node].flight_at;
    for (const FlightEvent& ev : node.flight) at.push_back(ev.at_cycles);
  }
  for (auto& [name, index] : by_name) {
    std::sort(index.flight_at.begin(), index.flight_at.end());
  }
  const std::vector<std::string>* names =
      opts.deliveries != nullptr ? opts.node_names : nullptr;
  if (names != nullptr) {
    std::vector<NodeIndex*> index_of(names->size());
    for (std::size_t id = 0; id < names->size(); ++id) {
      index_of[id] = &by_name[(*names)[id]];
    }
    for (const LinkDelivery& d : *opts.deliveries) {
      if (d.trace_id != report.trace_id || d.dst >= names->size()) continue;
      index_of[d.dst]->inbound.push_back(&d);
    }
    for (auto& [name, index] : by_name) {
      std::stable_sort(index.inbound.begin(), index.inbound.end(), delivered_before);
    }
  }

  for (CriticalPathStep& step : report.steps) {
    const auto it = by_name.find(step.node);
    if (it == by_name.end()) continue;
    const NodeIndex& index = it->second;

    // Link attribution: a step whose span adopted a parent on a different
    // node is charged the fabric delivery that carried the hop — the
    // latest (deliver, send) traced delivery into the step's node that
    // arrived at or before the span started; among equal pairs the
    // earliest in log order, which the stable sort put first in its run.
    // A source outside the name table is never the step's own node.
    if (names != nullptr && step.depth != 0) {
      const auto arrived_end = std::upper_bound(
          index.inbound.begin(), index.inbound.end(), step.start_cycles,
          [](std::uint64_t t, const LinkDelivery* d) { return t < d->deliver_cycles; });
      if (arrived_end != index.inbound.begin()) {
        const LinkDelivery* best = *std::lower_bound(
            index.inbound.begin(), arrived_end, *(arrived_end - 1), delivered_before);
        if (best->src >= names->size() || (*names)[best->src] != step.node) {
          step.link_cycles = best->deliver_cycles - best->send_cycles;
          report.link_cycles_total += step.link_cycles;
        }
      }
    }

    // Recovery attribution: flight events on the step's node inside the
    // inclusive span window (NACKs, retransmits, dead streams, faults, ...).
    if (step.end_cycles >= step.start_cycles) {
      const std::vector<std::uint64_t>& at = index.flight_at;
      step.recovery_events = static_cast<std::uint64_t>(
          std::upper_bound(at.begin(), at.end(), step.end_cycles) -
          std::lower_bound(at.begin(), at.end(), step.start_cycles));
      report.recovery_events_total += step.recovery_events;
    }
  }

  for (const CriticalPathStep& step : report.steps) {
    report.node_self_cycles[step.node] += step.self_cycles;
  }
  std::uint64_t best_self = 0;
  for (const auto& [node, self] : report.node_self_cycles) {
    if (self > best_self) {
      best_self = self;
      report.dominant_node = node;
    }
  }

  return report;
}

std::string CriticalPathReport::to_json() const {
  // Reserve a lower bound, so never more than the result: a step's keys
  // with empty strings and one-digit numbers take this many bytes. One
  // doubling from there covers the usual ~180 bytes a step, where a chain
  // of doublings from the header can overshoot by almost 2x.
  constexpr std::size_t kMinStepJsonBytes = 122;
  std::string out;
  out.reserve(steps.size() * kMinStepJsonBytes);
  out += "{\"schema\":\"securecloud.critical_path.v1\",\"trace\":";
  append_json_int(out, trace_id);
  out += ",\"total_cycles\":";
  append_json_int(out, total_cycles);
  out += ",\"dominant_node\":";
  append_json_string(out, dominant_node);
  out += ",\"link_cycles_total\":";
  append_json_int(out, link_cycles_total);
  out += ",\"recovery_events_total\":";
  append_json_int(out, recovery_events_total);
  out += ",\"node_self_cycles\":{";
  bool first = true;
  for (const auto& [node, self] : node_self_cycles) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, node);
    out += ':';
    append_json_int(out, self);
  }
  out += "},\"steps\":[";
  first = true;
  for (const CriticalPathStep& step : steps) {
    if (!first) out += ',';
    first = false;
    out += "{\"node\":";
    append_json_string(out, step.node);
    out += ",\"name\":";
    append_json_string(out, step.name);
    out += ",\"id\":";
    append_json_int(out, step.span_id);
    out += ",\"depth\":";
    append_json_int(out, step.depth);
    out += ",\"start_cycles\":";
    append_json_int(out, step.start_cycles);
    out += ",\"end_cycles\":";
    append_json_int(out, step.end_cycles);
    out += ",\"self_cycles\":";
    append_json_int(out, step.self_cycles);
    out += ",\"link_cycles\":";
    append_json_int(out, step.link_cycles);
    out += ",\"recovery_events\":";
    append_json_int(out, step.recovery_events);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string CriticalPathReport::to_text() const {
  std::string out = "critical path: trace " + std::to_string(trace_id) +
                    ", total " + std::to_string(total_cycles) +
                    " cycles, dominant node " +
                    (dominant_node.empty() ? "<none>" : dominant_node) + "\n";
  for (const CriticalPathStep& step : steps) {
    const double pct =
        total_cycles == 0
            ? 0.0
            : 100.0 * static_cast<double>(step.self_cycles) /
                  static_cast<double>(total_cycles);
    // Integer-scaled percent keeps the rendering bit-stable.
    const std::uint64_t pct_x10 = static_cast<std::uint64_t>(pct * 10.0 + 0.5);
    for (std::size_t i = 0; i < step.depth; ++i) out += "  ";
    out += "- " + step.node + "/" + step.name + "  self " +
           std::to_string(pct_x10 / 10) + "." + std::to_string(pct_x10 % 10) +
           "%";
    if (step.link_cycles != 0) {
      out += "  link " + std::to_string(step.link_cycles) + "cy";
    }
    if (step.recovery_events != 0) {
      out += "  recovery_events " + std::to_string(step.recovery_events);
    }
    out += "  [" + std::to_string(step.start_cycles) + " .. " +
           std::to_string(step.end_cycles) + "]\n";
  }
  return out;
}

}  // namespace securecloud::obs
