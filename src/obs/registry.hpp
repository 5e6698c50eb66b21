// Thread-safe registry of named metrics with stable export formats.
//
// Registration (counter()/gauge()/histogram()) is read-mostly lock-free:
// each instrument kind keeps a sharded name index of RCU snapshot cells
// (common/lockfree RcuCell), so looking up an already-interned name
// costs one epoch pin and one map probe — no mutex, no contention with
// exporters. First-time interning takes the owning shard's writer mutex,
// creates the instrument in shard-stable storage, and publishes a
// copy-on-write index snapshot. The call is idempotent: the same name
// always returns the same handle, and handles stay valid for the
// registry's lifetime. Components resolve their handles once at attach
// time (`set_obs`) and then update through bare pointers — the hot path
// never locks or hashes a name.
//
// Export (snapshot()/to_json()/to_prometheus()) walks the RCU snapshots
// only: it never takes a writer mutex, so serializing a large registry
// cannot block concurrent interning or counter bumps (and vice versa).
//
// Export:
//   to_json()       — one line, schema "securecloud.obs.v1", keys sorted
//                     lexicographically. Two registries with the same
//                     metric values serialize to byte-identical strings,
//                     which is what the determinism tests compare.
//   to_prometheus() — text exposition format (# TYPE lines, cumulative
//                     histogram buckets with le labels).
//
// Metric naming convention (enforced by review, not code):
//   <subsystem>_<metric>[_total]   e.g. sgx_epc_faults_total
// Subsystem prefixes in use: sgx, mapreduce, scbr, transfer, bus,
// genpack, container, kvstore.
#pragma once

#include <array>
#include <charconv>
#include <concepts>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lockfree/epoch.hpp"
#include "obs/metrics.hpp"

namespace securecloud::obs {

/// Point-in-time copy of every metric in a registry. Maps are sorted by
/// name, so equality and serialization are order-stable.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool operator==(const Snapshot&) const = default;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. The returned reference is stable for the registry's lifetime.
  /// Lock-free for already-interned names.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Never blocks registration or bumps (reads RCU index snapshots only).
  Snapshot snapshot() const;

  /// One-line JSON, schema "securecloud.obs.v1", sorted keys. Stable:
  /// equal snapshots serialize to byte-identical strings.
  std::string to_json() const;

  /// Prometheus text exposition format.
  std::string to_prometheus() const;

  /// Zeroes every registered instrument (handles stay valid).
  void reset();

 private:
  /// One instrument kind: a sharded read-mostly name index. Instruments
  /// live in per-shard deques (node-stable under growth); the index maps
  /// names to bare pointers and is republished copy-on-write.
  template <typename Instrument>
  struct Kind {
    static constexpr std::size_t kShards = 8;
    using Index = std::map<std::string, Instrument*>;

    struct Shard {
      lockfree::RcuCell<Index> index;
      std::mutex writer_mu;
      std::deque<std::unique_ptr<Instrument>> storage;
    };

    Shard& shard_for(const std::string& name) {
      return shards[std::hash<std::string>{}(name) % kShards];
    }

    Instrument& intern(const std::string& name) {
      Shard& shard = shard_for(name);
      {
        auto ref = shard.index.read();
        if (auto it = ref->find(name); it != ref->end()) return *it->second;
      }
      std::lock_guard<std::mutex> lock(shard.writer_mu);
      // Re-check: another thread may have interned it before we locked.
      {
        auto ref = shard.index.read();
        if (auto it = ref->find(name); it != ref->end()) return *it->second;
      }
      shard.storage.push_back(std::make_unique<Instrument>());
      Instrument* created = shard.storage.back().get();
      shard.index.update([&](Index& idx) { idx.emplace(name, created); });
      return *created;
    }

    /// Visits every (name, instrument) pair via the RCU snapshots.
    template <typename F>
    void for_each(F&& fn) const {
      for (const Shard& shard : shards) {
        auto ref = shard.index.read();
        for (const auto& [name, instrument] : *ref) fn(name, instrument);
      }
    }

    std::array<Shard, kShards> shards;
  };

  Kind<Counter> counters_;
  Kind<Gauge> gauges_;
  Kind<Histogram> histograms_;
};

/// Serializes a snapshot without holding any registry lock (what
/// Registry::to_json produces; exposed so benches can stamp extra fields
/// around it).
std::string snapshot_to_json(const Snapshot& snap);
std::string snapshot_to_prometheus(const Snapshot& snap);

/// Appends what snapshot_to_json returns to `out`, for exporters that
/// embed one registry document in a larger one.
void append_snapshot_json(std::string& out, const Snapshot& snap);

/// Appends `s` as a quoted, escaped JSON string. Shared by every obs
/// exporter so all schemas escape identically.
void append_json_string(std::string& out, const std::string& s);

/// Appends the decimal form of `v`, spelled as std::to_string spells it,
/// without building a temporary string.
inline void append_json_int(std::string& out, std::integral auto v) {
  char digits[24];  // 20 digits of a u64, or a sign and 19 of an i64
  const auto end = std::to_chars(digits, digits + sizeof digits, v).ptr;
  out.append(digits, end);
}

}  // namespace securecloud::obs
