#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <utility>

#include "obs/registry.hpp"

namespace securecloud::obs {

void append_flight_events_json(std::string& out, const std::vector<FlightEvent>& evs,
                               std::uint64_t dropped) {
  out += "\"dropped\":";
  append_json_int(out, dropped);
  out += ",\"events\":[";
  bool first = true;
  for (const FlightEvent& ev : evs) {
    if (!first) out += ',';
    first = false;
    out += "{\"seq\":";
    append_json_int(out, ev.seq);
    out += ",\"at_cycles\":";
    append_json_int(out, ev.at_cycles);
    out += ",\"category\":";
    append_json_string(out, ev.category);
    out += ",\"detail\":";
    append_json_string(out, ev.detail);
    out += '}';
  }
  out += ']';
}

void FlightRecorder::record(std::string category, std::string detail) {
  auto* ev = new FlightEvent;
  ev->seq = seq_.fetch_add(1, std::memory_order_relaxed);
  ev->at_cycles = clock_->cycles();
  ev->category = std::move(category);
  ev->detail = std::move(detail);
  ThreadRing* local = rings_.local(
      [this] { return new ThreadRing(domain_, capacity_); });
  local->ring.append(ev);
}

std::vector<FlightEvent> FlightRecorder::merged_events() const {
  std::vector<FlightEvent> out;
  {
    lockfree::EpochDomain::Guard guard(domain_);
    std::vector<const FlightEvent*> collected;
    for (ThreadRing* r = rings_.head(); r != nullptr; r = r->next) {
      r->ring.collect(collected);
    }
    out.reserve(collected.size());
    for (const FlightEvent* ev : collected) out.push_back(*ev);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) { return a.seq < b.seq; });
  // Global retention is the last `capacity_` events across all threads.
  // Each per-thread ring keeps its own last `capacity_`, a superset of
  // its share of the global suffix, so the trim never misses an event.
  if (out.size() > capacity_) {
    out.erase(out.begin(),
              out.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::events() const { return merged_events(); }

std::uint64_t FlightRecorder::total_recorded() const {
  return seq_.load(std::memory_order_relaxed);
}

std::string FlightRecorder::to_json() const {
  const std::vector<FlightEvent> evs = merged_events();
  const std::uint64_t total = seq_.load(std::memory_order_relaxed);
  std::string out = "{\"schema\":\"securecloud.flight.v1\",";
  append_flight_events_json(out, evs, total - evs.size());
  out += '}';
  return out;
}

void FlightRecorder::clear() {
  for (ThreadRing* r = rings_.head(); r != nullptr; r = r->next) {
    r->ring.clear();
  }
  seq_.store(0, std::memory_order_relaxed);
}

}  // namespace securecloud::obs
