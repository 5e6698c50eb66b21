#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

void Report::check(bool ok, std::string_view what) { checks(1, ok ? 0 : 1, what); }

void Report::checks(std::uint64_t attempted, std::uint64_t failed, std::string_view what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && failures_.size() < 16) {
    failures_.push_back(std::string(what) + " (" + std::to_string(failed) + " of " +
                        std::to_string(attempted) + ")");
  }
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

void Digest::add(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

namespace {

/// The reference kernel: the kinds of work the stack spends its time
/// on, in benchmark code. Byte-table substitution rounds (software
/// AES), 64-bit hashing (digests, partitioners) and node-based map
/// churn (the fabric's queues and the routing tables).
std::uint64_t reference_kernel() {
  static const auto table = [] {
    std::array<std::uint8_t, 256> t{};
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<std::uint8_t>(i);
    for (std::size_t i = t.size() - 1; i > 0; --i) std::swap(t[i], t[mix(7, i) % (i + 1)]);
    return t;
  }();
  std::array<std::uint8_t, 1024> state{};
  for (std::size_t i = 0; i < state.size(); ++i) state[i] = static_cast<std::uint8_t>(i * 31);
  for (int round = 0; round < 24; ++round) {
    for (std::size_t i = 0; i < state.size(); ++i) {
      state[i] = table[state[i] ^ state[(i + 1) % state.size()] ^ static_cast<std::uint8_t>(round)];
    }
  }
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < 4096; ++i) h = mix(h, i, state[i % state.size()]);
  std::map<std::uint64_t, std::uint64_t> nodes;
  for (std::uint64_t i = 0; i < 256; ++i) nodes[mix(h, i) % 4096] = i;
  for (std::uint64_t i = 0; i < 256; ++i) h += nodes.erase(mix(h, i) % 4096);
  // String-keyed lookups, as in filter matching and metric registries.
  static const auto names = [] {
    std::map<std::string, std::uint64_t> m;
    for (std::uint64_t i = 0; i < 32; ++i) m["attr" + std::to_string(i)] = i;
    return m;
  }();
  std::string key = "attr";
  for (std::uint64_t i = 0; i < 512; ++i) {
    key.resize(4);
    key += std::to_string(mix(h, i) % 40);
    const auto it = names.find(key);
    h += it == names.end() ? 1 : it->second;
  }
  return h + nodes.size();
}

std::atomic<std::uint64_t> g_kernel_sink{0};

}  // namespace

double probe_host() {
  std::array<double, 3> times{};
  for (double& t : times) {
    const std::uint64_t start = now_ns();
    g_kernel_sink.fetch_add(reference_kernel(), std::memory_order_relaxed);
    t = seconds_between(start, now_ns());
  }
  std::sort(times.begin(), times.end());
  return times[1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^ (a + 0x632be59bd9b4e019ULL) * 0xbf58476d1ce4e5b9ULL ^
                    (b + 0x8cb92ba72f3d8dd7ULL) * 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace perfbench
