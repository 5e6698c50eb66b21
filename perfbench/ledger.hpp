// The layer ledger: benchmark-side spans around every call into a layer,
// per-operator busy-time wrappers, and the replay probes that turn the
// run's own counters into crypto time.
//
// Spans are recorded only in the traced run. Driver spans (setup, run,
// snapshot, ...) are taken on the driving thread; operator wrappers may
// run on pool threads, so each thread aggregates into its own buffer
// (registered once, under a lock, on the thread's first call) and keeps
// one sampled span per kSampleEvery calls, so a run over millions of
// records stays small.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "net/fabric.hpp"
#include "obs/cluster.hpp"

namespace perfbench {

/// The operator functions the benchmark hands to the stack, timed in
/// its own wrappers (layer `smartgrid`).
enum class Op : std::uint8_t { kSource, kValidate, kTheft, kBilling, kSink, kMap, kReduce };
inline constexpr std::size_t kOpCount = 7;
const char* op_name(Op op);

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t trace = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class Ledger {
 public:
  static constexpr std::uint64_t kSampleEvery = 4096;

  static Ledger& get();

  /// Turns recording on or off. Call only while no operator can run.
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  /// Trace id and parent span that operator spans attach to.
  void set_context(std::uint64_t trace, std::uint64_t parent) {
    trace_.store(trace, std::memory_order_relaxed);
    parent_.store(parent, std::memory_order_relaxed);
  }

  /// Driver-thread span: returns its id (0 when not tracing).
  std::uint64_t begin(const char* name, std::uint64_t parent);
  void end(std::uint64_t id);

  template <typename Fn>
  auto timed_op(Op op, Fn&& fn) {
    if (!tracing()) return fn();
    const std::uint64_t start = now_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      fn();
      record_op(op, start, now_ns());
    } else {
      auto out = fn();
      record_op(op, start, now_ns());
      return out;
    }
  }

  /// Sum of closed driver-span durations named `name`, seconds.
  double span_seconds(const char* name) const;
  /// Operator totals over every thread buffer. Read only while no
  /// operator can run.
  std::uint64_t op_calls(Op op) const;
  double op_busy_s(Op op) const;
  std::size_t spans_recorded() const;

  /// Writes every span as one JSON line each; false on I/O failure.
  bool write_spans(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::uint64_t id_prefix = 0;
    std::uint64_t next_id = 0;
    std::array<std::uint64_t, kOpCount> calls{};
    std::array<std::uint64_t, kOpCount> busy_ns{};
    std::vector<SpanRecord> spans;
  };

  ThreadBuffer& local();
  void record_op(Op op, std::uint64_t start, std::uint64_t end);

  std::atomic<bool> tracing_{false};
  std::atomic<std::uint64_t> trace_{0};
  std::atomic<std::uint64_t> parent_{0};
  mutable std::mutex buffers_mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<SpanRecord> driver_spans_;     // driving thread only
  std::uint64_t next_driver_id_ = 1;
};

/// RAII driver span.
class Span {
 public:
  Span(const char* name, std::uint64_t parent = 0)
      : id_(Ledger::get().begin(name, parent)) {}
  ~Span() { Ledger::get().end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

/// A section timed between two host probes (spans named "probe"): its
/// stop() returns the duration at the reference host speed.
class Section {
 public:
  Section() : probe_(probe()), start_(now_ns()) {}
  double stop() {
    raw_s_ = seconds_between(start_, now_ns());
    return raw_s_ * kReferenceKernelS / ((probe_ + probe()) / 2);
  }
  double raw_s() const { return raw_s_; }

 private:
  static double probe() {
    Span span("probe");
    return probe_host();
  }

  double probe_;
  std::uint64_t start_;
  double raw_s_ = 0;
};

/// A class of AES-GCM operations the run performed, as its counters
/// report them: how many seals and opens, at what mean payload size.
struct CryptoOps {
  const char* what = "";
  double seals = 0;
  double opens = 0;
  double mean_bytes = 0;
};

struct CryptoEstimate {
  double ops = 0;
  double seal_ns_per_op = 0;  // op-weighted over the classes
  double open_ns_per_op = 0;
  double est_s = 0;
};

/// Counters of one unit of work: every node's registry summed, plus the
/// fabric's stats as "fabric.messages_sent", "fabric.bytes_sent" and
/// "fabric.timers_fired".
using Counters = std::map<std::string, double>;
Counters collect_counters(const std::vector<const securecloud::obs::NodeObs*>& nodes,
                          const securecloud::net::FabricStats& fabric);
double counter(const Counters& counters, const char* name);

/// Emits the crypto, sgx and net per-layer metrics of one unit from its
/// counters. Replays the flow-chunk and session-record seals the
/// counters report, plus the `extra` classes. Returns the estimate.
CryptoEstimate report_stack(Report& report, const Counters& counters,
                            std::vector<CryptoOps> extra, double enclave_transitions);

/// Emits smartgrid.op.<fn>.busy_s / .calls for every operator, divided
/// by `units` (runs, jobs or epochs traced).
void report_ops(Report& report, double units);

}  // namespace perfbench
