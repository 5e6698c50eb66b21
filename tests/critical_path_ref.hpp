// Reference critical-path analysis for differential tests.
//
// This is the obs::critical_path that src/obs/cluster.cpp used before
// its attribution passes became index lookups: link attribution scans
// every delivery for every step (a string compare each), and recovery
// attribution scans every flight event for every step, so it costs
// steps x (deliveries + flight events). It is slow and simple on
// purpose: the tests compare obs::critical_path against it report for
// report. Nothing in src/ includes it.
//
// One difference from a safe analyzer is kept as it was: the winning
// delivery's `src` is read through `names[best->src]` without a bounds
// check, so inputs whose deliveries name an out-of-range `src` must not
// be fed to it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "obs/cluster.hpp"

namespace securecloud::obs::critical_path_ref {

struct MergedSpan {
  const SpanRecord* span = nullptr;
  const std::string* node = nullptr;
};

// Global view of every span, in the total order the v2 export uses:
// (start_cycles, end_cycles, span_id). Span ids are unique cluster-wide
// (per-node id prefixes), so the order is deterministic.
inline std::vector<MergedSpan> merged_spans(const ClusterSnapshot& snap) {
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

// One contiguous stretch of chain time charged to a span.
struct ChainSegment {
  const MergedSpan* owner = nullptr;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::size_t depth = 0;
};

// Backward walk: the chain charges [lo, hi) of `span`'s window to the
// deepest child covering each instant, walking children latest-end
// first. Whatever no child covers is the span's own (self) time.
inline void walk(const MergedSpan& span, std::uint64_t lo, std::uint64_t hi,
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

inline Result<CriticalPathReport> critical_path(const ClusterSnapshot& snap,
                                                const CriticalPathOptions& opts = {}) {
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

  // Link attribution: for each step whose span adopted a parent on a
  // different node, charge the fabric delivery that carried the hop —
  // the latest traced delivery into the step's node that arrived at or
  // before the span started.
  if (opts.deliveries != nullptr && opts.node_names != nullptr) {
    const std::vector<std::string>& names = *opts.node_names;
    for (CriticalPathStep& step : report.steps) {
      if (step.depth == 0) continue;
      const LinkDelivery* best = nullptr;
      for (const LinkDelivery& d : *opts.deliveries) {
        if (d.trace_id != report.trace_id) continue;
        if (d.dst >= names.size() || names[d.dst] != step.node) continue;
        if (d.deliver_cycles > step.start_cycles) continue;
        if (best == nullptr || d.deliver_cycles > best->deliver_cycles ||
            (d.deliver_cycles == best->deliver_cycles &&
             d.send_cycles > best->send_cycles)) {
          best = &d;
        }
      }
      if (best != nullptr && names[best->src] != step.node) {
        step.link_cycles = best->deliver_cycles - best->send_cycles;
        report.link_cycles_total += step.link_cycles;
      }
    }
  }

  // Recovery attribution: flight events on the step's node inside the
  // span window (NACKs, retransmits, dead streams, faults, ...).
  for (CriticalPathStep& step : report.steps) {
    for (const NodeSnapshot& node : snap.nodes) {
      if (node.node != step.node) continue;
      for (const FlightEvent& ev : node.flight) {
        if (ev.at_cycles >= step.start_cycles && ev.at_cycles <= step.end_cycles) {
          ++step.recovery_events;
        }
      }
    }
    report.recovery_events_total += step.recovery_events;
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

}  // namespace securecloud::obs::critical_path_ref
