#include "obs/registry.hpp"

#include <sstream>

namespace securecloud::obs {

// Metric names are generated in-tree from [a-z0-9_.] identifiers; escape
// the JSON specials anyway so a stray name cannot corrupt the document.
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  std::size_t plain = 0;  // start of the pending run that needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char* escaped = nullptr;
    switch (s[i]) {
      case '"': escaped = "\\\""; break;
      case '\\': escaped = "\\\\"; break;
      case '\n': escaped = "\\n"; break;
      case '\t': escaped = "\\t"; break;
      default: continue;
    }
    out.append(s, plain, i - plain);
    out += escaped;
    plain = i + 1;
  }
  out.append(s, plain);
  out += '"';
}

Counter& Registry::counter(const std::string& name) {
  return counters_.intern(name);
}

Gauge& Registry::gauge(const std::string& name) { return gauges_.intern(name); }

Histogram& Registry::histogram(const std::string& name) {
  return histograms_.intern(name);
}

// Shard snapshots merge into one sorted map, so the export is identical
// to the old single-map walk; no writer mutex is ever taken here.
Snapshot Registry::snapshot() const {
  Snapshot snap;
  counters_.for_each(
      [&](const std::string& name, Counter* c) { snap.counters[name] = c->value(); });
  gauges_.for_each(
      [&](const std::string& name, Gauge* g) { snap.gauges[name] = g->value(); });
  histograms_.for_each([&](const std::string& name, Histogram* h) {
    snap.histograms[name] = h->snapshot();
  });
  return snap;
}

void Registry::reset() {
  counters_.for_each([](const std::string&, Counter* c) { c->reset(); });
  gauges_.for_each([](const std::string&, Gauge* g) { g->reset(); });
  histograms_.for_each([](const std::string&, Histogram* h) { h->reset(); });
}

void append_snapshot_json(std::string& out, const Snapshot& snap) {
  out += "{\"schema\":\"securecloud.obs.v1\",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_json_int(out, value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_json_int(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":";
    append_json_int(out, h.count);
    out += ",\"sum\":";
    append_json_int(out, h.sum);
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [le, n] : h.buckets) {
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += '[';
      append_json_int(out, le);
      out += ',';
      append_json_int(out, n);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
}

std::string snapshot_to_json(const Snapshot& snap) {
  std::string out;
  append_snapshot_json(out, snap);
  return out;
}

std::string snapshot_to_prometheus(const Snapshot& snap) {
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    out << "# TYPE " << name << " counter\n" << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out << "# TYPE " << name << " gauge\n" << name << " " << value << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [le, n] : h.buckets) {
      cumulative += n;
      out << name << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
    }
    out << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    out << name << "_sum " << h.sum << "\n";
    out << name << "_count " << h.count << "\n";
  }
  return out.str();
}

std::string Registry::to_json() const { return snapshot_to_json(snapshot()); }

std::string Registry::to_prometheus() const {
  return snapshot_to_prometheus(snapshot());
}

}  // namespace securecloud::obs
