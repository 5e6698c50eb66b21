// Shared plumbing of the SecureCloud benchmark: options, metric report,
// output oracle accounting, timing and sample statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase. With --trace 1 it is split into an
  /// untraced half and a traced half (trace.overhead_ratio).
  double seconds = 10;
  bool trace = false;
  /// Pool size of the measured phase: min(4, nproc).
  std::size_t pool = 4;
  /// Input-size multiplier (the benchmark's own tests run at 0.05).
  double scale = 1.0;
  /// Corrupts one oracle expectation, to prove the oracle trips.
  bool plant_mismatch = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string span_path;
};

/// Everything one workload run reports. Metrics keep insertion order;
/// the end-to-end set is printed with --trace 0, the per-layer set with
/// --trace 1.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  void e2e(std::string name, double value, std::string unit) {
    e2e_.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layer_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Context printed beside the metrics (sample counts, percentiles,
  /// digests); never part of the JSON result.
  void note(std::string text) { notes_.push_back(std::move(text)); }

  /// One checked output: counts as attempted, and as failed unless ok.
  void check(bool ok, std::string_view what);
  /// A batch of `attempted` checked outputs of which `failed` mismatched.
  void checks(std::uint64_t attempted, std::uint64_t failed, std::string_view what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& e2e() const { return e2e_; }
  const std::vector<Metric>& layers() const { return layer_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
double quantile(std::vector<double>& samples, double q);
double median(std::vector<double> samples);

/// FNV-1a over a byte stream: the output digests the determinism
/// self-check compares.
class Digest {
 public:
  void add(const void* data, std::size_t size);
  void add(std::string_view s) {
    add_u64(s.size());
    add(s.data(), s.size());
  }
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
  void add_double(double v) { add(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Host-speed calibration. On a shared host, neighbours slow the CPUs
/// (up to 2.3x for tens of seconds on a shared 4-vCPU VM), and raw wall
/// times swing with them. So every timed section is bracketed by
/// probes of a fixed reference kernel (benchmark code only, never the
/// stack's, so no change to the stack moves it), and its time is
/// reported at the reference speed (see Section in ledger.hpp):
///   normalized = raw * kReferenceKernelS / mean(probe before, probe after).
/// Raw times are printed beside the normalized ones.
inline constexpr double kReferenceKernelS = 120e-6;

/// Median time of three runs of the reference kernel, seconds.
double probe_host();

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Deterministic 64-bit hash of (seed, a, b): the benchmark's input
/// generators are pure functions of the seed through it.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);
/// Uniform double in [0, 1) from mix().
inline double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return static_cast<double>(mix(seed, a, b) >> 11) * 0x1.0p-53;
}

/// Relative-or-absolute equality used by every numeric oracle:
/// |a - b| <= 1e-9 * max(1, |b|).
bool close(double a, double b);

void run_streams_city(const Options& options, Report& report);
void run_dmr_batch(const Options& options, Report& report);
void run_scbr_pubsub(const Options& options, Report& report);

}  // namespace perfbench
