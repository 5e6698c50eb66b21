// The SecureCloud benchmark driver.
//
//   perfbench --workload streams_city|dmr_batch|scbr_pubsub --seed N
//             --seconds S --trace 0|1 [--scale F]
//             [--plant-mismatch] [--spans PATH]
//
// Runs one workload from generated inputs, checks its outputs against a
// plain recomputation, and prints every metric by name and unit, then as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics (untraced run);
// --trace 1 the per-layer metrics of a traced run, whose spans go to
// --spans. Exits 1 when any output mismatched, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "ledger.hpp"

namespace perfbench {
namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// The end-to-end metrics: every workload reports every one.
const MetricList& e2e_metrics() {
  static const MetricList list = {
      {"setup_s", "s"},         {"throughput_rps", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"}, {"report_s", "s"},         {"secure_slowdown_x", "x"},
      {"peak_rss_mb", "MiB"},
  };
  return list;
}

/// The per-layer metrics. A workload that does not drive a layer
/// reports it as 0.
const MetricList& layer_metrics() {
  static const MetricList list = [] {
    MetricList l = {
        {"crypto.gcm_seal_ns_per_op", "ns"}, {"crypto.gcm_open_ns_per_op", "ns"},
        {"crypto.ops", "count"},             {"crypto.est_s", "s"},
        {"crypto.handshake_ms", "ms"},       {"sgx.epc_faults", "count"},
        {"sgx.epc_evictions", "count"},      {"sgx.enclave_transitions", "count"},
        {"net.messages_sent", "count"},      {"net.bytes_sent", "B"},
        {"net.flow_chunks_sent", "count"},   {"net.flow_retransmits", "count"},
        {"net.flow_nacks", "count"},         {"net.session_records_sent", "count"},
        {"net.timers_fired", "count"},       {"bigdata.dmr.encrypt_s", "s"},
        {"bigdata.dmr.shuffle_bytes", "B"},  {"bigdata.dmr.map_tasks", "count"},
        {"bigdata.dmr.self_s", "s"},
    };
    for (const char* stage : {"meters", "validate", "window", "theft", "billing", "sink"}) {
      const std::string base = std::string("streams.") + stage;
      l.push_back({base + ".records_in", "count"});
      l.push_back({base + ".records_out", "count"});
      l.push_back({base + ".credit_stalls", "count"});
      l.push_back({base + ".stall_ns", "ns"});
    }
    l.push_back({"streams.stall_ratio", "ratio"});
    l.push_back({"streams.self_s", "s"});
    for (std::size_t i = 0; i < kOpCount; ++i) {
      const std::string base = std::string("smartgrid.op.") + op_name(static_cast<Op>(i));
      l.push_back({base + ".busy_s", "s"});
      l.push_back({base + ".calls", "count"});
    }
    const MetricList tail = {
        {"scbr.subscribe_busy_s", "s"},      {"scbr.publish_busy_s", "s"},
        {"scbr.drain_s", "s"},               {"scbr.subscribe_rps", "1/s"},
        {"scbr.suppression_ratio", "ratio"}, {"scbr.table_prunes", "count"},
        {"scbr.max_broker_remote_entries", "count"},
        {"scbr.hops_per_event", "count"},    {"scbr.deliveries_per_event", "count"},
        {"obs.snapshot_s", "s"},             {"obs.critical_path_s", "s"},
        {"obs.critical_path_steps", "count"}, {"obs.export_s", "s"},
        {"obs.export_bytes", "B"},           {"obs.deliveries_logged", "count"},
        {"ledger.bench_s", "s"},             {"ledger.residual_s", "s"},
        {"trace.overhead_ratio", "ratio"},
        {"sim_throughput_rps", "1/s"},       {"sim_latency_p99_us", "us"},
    };
    l.insert(l.end(), tail.begin(), tail.end());
    return l;
  }();
  return list;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload streams_city|dmr_batch|scbr_pubsub "
               "--seed N --seconds S --trace 0|1 [--scale F] [--plant-mismatch] "
               "[--spans PATH] | --list-metrics\n",
               why);
  return 2;
}

/// Orders the reported metrics as `canon` lists them. Missing ones are
/// zero when `zero_missing`, otherwise a failure; a name outside the
/// list, or a unit that differs from it, is a failure too.
std::vector<Report::Metric> canonical(const std::vector<Report::Metric>& reported,
                                      const MetricList& canon, bool zero_missing,
                                      Report& report) {
  std::map<std::string, const Report::Metric*> by_name;
  for (const auto& m : reported) by_name[m.name] = &m;
  std::vector<Report::Metric> out;
  for (const auto& [name, unit] : canon) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      if (!zero_missing) report.check(false, "metric " + name + " reported");
      out.push_back({name, 0, unit});
      continue;
    }
    const Report::Metric& m = *it->second;
    if (m.unit != unit || !std::isfinite(m.value)) {
      report.check(false, "metric " + name + " is finite, in " + unit);
    }
    out.push_back({name, std::isfinite(m.value) ? m.value : 0, unit});
    by_name.erase(it);
  }
  for (const auto& [name, m] : by_name) report.check(false, "metric " + name + " is declared");
  return out;
}

void print_metric_list() {
  auto print = [](const char* what, const MetricList& list) {
    std::printf("\"%s\": [", what);
    for (std::size_t i = 0; i < list.size(); ++i) {
      std::printf("%s[\"%s\", \"%s\"]", i == 0 ? "" : ", ", list[i].first.c_str(),
                  list[i].second.c_str());
    }
    std::printf("]");
  };
  std::printf("{");
  print("end_to_end", e2e_metrics());
  std::printf(", ");
  print("per_layer", layer_metrics());
  std::printf("}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.pool = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list-metrics") {
      print_metric_list();
      return 0;
    } else if (arg == "--plant-mismatch") {
      options.plant_mismatch = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      options.trace = std::strcmp(argv[++i], "1") == 0;
      have_trace = true;
    } else if (arg == "--scale") {
      options.scale = std::strtod(argv[++i], nullptr);
    } else if (arg == "--spans") {
      options.span_path = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (!(options.seconds > 0) || !(options.scale > 0)) return usage("bad --seconds or --scale");

  Report report;
  if (options.workload == "streams_city") {
    run_streams_city(options, report);
  } else if (options.workload == "dmr_batch") {
    run_dmr_batch(options, report);
  } else if (options.workload == "scbr_pubsub") {
    run_scbr_pubsub(options, report);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  const bool ran = report.attempted() > 0 && report.failed() == 0;
  const std::vector<Report::Metric> metrics =
      options.trace ? canonical(report.layers(), layer_metrics(), true, report)
                    : canonical(report.e2e(), e2e_metrics(), false, report);
  if (options.trace && ran && !options.span_path.empty()) {
    report.check(Ledger::get().write_spans(options.span_path), "spans written");
    report.note("spans: " + std::to_string(Ledger::get().spans_recorded()) + " -> " +
                options.span_path);
  }

  for (const std::string& note : report.notes()) std::printf("# %s\n", note.c_str());
  for (const Report::Metric& m : metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double error_rate = static_cast<double>(report.failed()) /
                            static_cast<double>(std::max<std::uint64_t>(1, report.attempted()));
  std::printf("%-36s %.6g (%llu of %llu checked outputs)\n", "error_rate", error_rate,
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  for (const std::string& failure : report.failures()) std::printf("# FAILED: %s\n", failure.c_str());

  const bool correct = report.attempted() > 0 && report.failed() == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, report.attempted())) +
                     ", \"failed\": " + std::to_string(report.failed()) + ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
