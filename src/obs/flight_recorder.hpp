// Bounded per-node ring of notable events for postmortems.
//
// A FlightRecorder keeps the last `capacity` notable events — fault
// injector decisions, NACK/retransmit activity, dead streams, session
// failures, EPC fault bursts — each stamped with the node's SimClock.
// When something goes wrong the ring is dumped alongside the typed
// error, answering "what happened just before?" without unbounded
// logging.
//
// Appends are wait-free: each recording thread owns a private
// lockfree::EventRing (atomic-pointer slots, single writer) and the
// global order comes from one atomic sequence counter, so pool workers
// recording concurrently never serialize on a mutex. Export merges the
// per-thread rings under an epoch guard — overwritten events stay alive
// until every in-flight exporter has left — sorts by sequence, and trims
// to the last `capacity` events globally. Each per-thread ring also
// holds `capacity` slots, so the globally-retained suffix is always
// fully present: events fed from deterministic points (the serial
// fabric loop, the seeded fault injector) make the dump bit-identical
// for a fixed seed, exactly as the old mutex ring did.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/lockfree/epoch.hpp"
#include "common/lockfree/event_ring.hpp"
#include "common/lockfree/tls_registry.hpp"
#include "common/sim_clock.hpp"

namespace securecloud::obs {

struct FlightEvent {
  std::uint64_t seq = 0;  // append order, monotonic even after wrap
  std::uint64_t at_cycles = 0;
  std::string category;  // e.g. "fault", "nack", "retransmit", "dead_stream"
  std::string detail;
};

/// Appends `"dropped":N,"events":[...]`: the members that the flight.v1
/// document and each node's entry in flight.v2 share.
void append_flight_events_json(std::string& out, const std::vector<FlightEvent>& evs,
                               std::uint64_t dropped);

class FlightRecorder {
 public:
  explicit FlightRecorder(const SimClock& clock, std::size_t capacity = 128)
      : clock_(&clock), capacity_(capacity == 0 ? 1 : capacity) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Wait-free; safe from any thread concurrently with export.
  void record(std::string category, std::string detail);

  /// Retained events (the last `capacity` recorded), oldest first.
  std::vector<FlightEvent> events() const;

  /// Total events ever recorded (>= events().size() once wrapped).
  std::uint64_t total_recorded() const;

  std::size_t capacity() const { return capacity_; }

  /// One-line JSON, schema "securecloud.flight.v1". `dropped` counts
  /// events the ring has already evicted.
  std::string to_json() const;

  /// Quiescent-only: no concurrent record() or export.
  void clear();

 private:
  struct ThreadRing {
    explicit ThreadRing(lockfree::EpochDomain& domain, std::size_t capacity)
        : ring(domain, capacity) {}
    lockfree::EventRing<FlightEvent> ring;
    ThreadRing* next = nullptr;
  };

  /// Merged, seq-sorted copy of the globally-retained suffix.
  std::vector<FlightEvent> merged_events() const;

  const SimClock* clock_;
  std::size_t capacity_;
  mutable lockfree::EpochDomain domain_;
  mutable lockfree::ThreadLocalList<ThreadRing> rings_;
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace securecloud::obs
