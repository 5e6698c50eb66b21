#include "ledger.hpp"

#include <algorithm>
#include <cstdio>

#include "crypto/ed25519.hpp"
#include "crypto/entropy.hpp"
#include "crypto/gcm.hpp"
#include "crypto/secure_channel.hpp"

namespace perfbench {

namespace {
constexpr std::array<const char*, kOpCount> kOpNames = {
    "source", "validate", "theft", "billing", "sink", "map", "reduce"};
// Sampled operator spans carry one fixed name per operator.
constexpr std::array<const char*, kOpCount> kOpSpanNames = {
    "op.source", "op.validate", "op.theft", "op.billing", "op.sink", "op.map", "op.reduce"};
}  // namespace

const char* op_name(Op op) { return kOpNames[static_cast<std::size_t>(op)]; }

Ledger& Ledger::get() {
  static Ledger ledger;
  return ledger;
}

std::uint64_t Ledger::begin(const char* name, std::uint64_t parent) {
  if (!tracing()) return 0;
  SpanRecord span;
  span.name = name;
  span.id = next_driver_id_++;
  span.parent = parent;
  span.trace = trace_.load(std::memory_order_relaxed);
  span.start_ns = now_ns();
  driver_spans_.push_back(span);
  return span.id;
}

void Ledger::end(std::uint64_t id) {
  if (id == 0) return;
  // Driver ids are 1-based positions in driver_spans_.
  driver_spans_[id - 1].end_ns = now_ns();
}

Ledger::ThreadBuffer& Ledger::local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(buffers_mu_);
    buffer->id_prefix = static_cast<std::uint64_t>(buffers_.size() + 1) << 40;
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void Ledger::record_op(Op op, std::uint64_t start, std::uint64_t end) {
  ThreadBuffer& buffer = local();
  const auto i = static_cast<std::size_t>(op);
  buffer.busy_ns[i] += end - start;
  if (buffer.calls[i]++ % kSampleEvery != 0) return;
  SpanRecord span;
  span.name = kOpSpanNames[i];
  span.id = buffer.id_prefix | ++buffer.next_id;
  span.parent = parent_.load(std::memory_order_relaxed);
  span.trace = trace_.load(std::memory_order_relaxed);
  span.start_ns = start;
  span.end_ns = end;
  buffer.spans.push_back(span);
}

double Ledger::span_seconds(const char* name) const {
  std::uint64_t total = 0;
  for (const SpanRecord& span : driver_spans_) {
    if (span.end_ns != 0 && std::string_view(span.name) == name) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) / 1e9;
}

std::uint64_t Ledger::op_calls(Op op) const {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->calls[static_cast<std::size_t>(op)];
  return total;
}

double Ledger::op_busy_s(Op op) const {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->busy_ns[static_cast<std::size_t>(op)];
  return static_cast<double>(total) / 1e9;
}

std::size_t Ledger::spans_recorded() const {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  std::size_t total = driver_spans_.size();
  for (const auto& buffer : buffers_) total += buffer->spans.size();
  return total;
}

bool Ledger::write_spans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  auto write = [out](const SpanRecord& s) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  };
  for (const SpanRecord& span : driver_spans_) write(span);
  {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    for (const auto& buffer : buffers_) {
      for (const SpanRecord& span : buffer->spans) write(span);
    }
  }
  return std::fclose(out) == 0;
}

namespace {

using securecloud::Bytes;
namespace crypto = securecloud::crypto;

/// Times `ops` seals and opens of `bytes`-long payloads on one keyed
/// context; returns (seal ns/op, open ns/op).
std::pair<double, double> time_gcm(std::size_t bytes, std::size_t ops, Report& report) {
  const crypto::AesGcm gcm(Bytes(16, 0x5c));
  const Bytes aad = {'p', 'r', 'o', 'b', 'e'};
  const Bytes plain(bytes, 0xa7);
  std::vector<Bytes> sealed(ops);
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < ops; ++i) {
    sealed[i] = gcm.seal_combined(crypto::nonce_from_counter(i + 1), aad, plain);
  }
  const std::uint64_t t1 = now_ns();
  std::size_t opened = 0;
  for (const Bytes& wire : sealed) opened += gcm.open_combined(aad, wire).ok() ? 1 : 0;
  const std::uint64_t t2 = now_ns();
  report.check(opened == ops, "crypto replay: every probe ciphertext opens");
  return {static_cast<double>(t1 - t0) / static_cast<double>(ops),
          static_cast<double>(t2 - t1) / static_cast<double>(ops)};
}

/// Replays each class at its mean size (a fixed sample of operations,
/// not all of them) and scales the measured ns/op by the class counts.
CryptoEstimate replay_crypto(const std::vector<CryptoOps>& classes, Report& report) {
  CryptoEstimate estimate;
  double seal_ns = 0, open_ns = 0, seals = 0, opens = 0;
  for (const CryptoOps& c : classes) {
    if (c.seals + c.opens <= 0) continue;
    const auto bytes = static_cast<std::size_t>(std::max(1.0, c.mean_bytes));
    // About 2 MiB of payload per class, between 64 and 4096 operations:
    // enough to time, small next to the measured phase.
    const std::size_t ops = std::clamp<std::size_t>((2u << 20) / bytes, 64, 4096);
    const auto [seal, open] = time_gcm(bytes, ops, report);
    seal_ns += seal * c.seals;
    open_ns += open * c.opens;
    seals += c.seals;
    opens += c.opens;
  }
  estimate.ops = seals + opens;
  estimate.seal_ns_per_op = seals > 0 ? seal_ns / seals : 0;
  estimate.open_ns_per_op = opens > 0 ? open_ns / opens : 0;
  estimate.est_s = (seal_ns + open_ns) / 1e9;
  return estimate;
}

/// One attested handshake: an X25519 channel handshake on both ends
/// plus an Ed25519 quote signed and verified per side. Median of a few
/// replays, milliseconds.
double replay_handshake_ms(Report& report) {
  std::vector<double> samples;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    crypto::DeterministicEntropy entropy(0x4a5 + rep);
    const auto quote_key_a = crypto::ed25519_keypair(entropy.array<32>());
    const auto quote_key_b = crypto::ed25519_keypair(entropy.array<32>());
    const std::uint64_t start = now_ns();
    crypto::ChannelHandshake initiator(crypto::ChannelHandshake::Role::kInitiator, entropy);
    crypto::ChannelHandshake responder(crypto::ChannelHandshake::Role::kResponder, entropy);
    const auto pk_a = initiator.local_public_key();
    const auto pk_b = responder.local_public_key();
    auto channel_a = std::move(initiator).complete(pk_b);
    auto channel_b = std::move(responder).complete(pk_a);
    bool ok = channel_a.ok() && channel_b.ok();
    if (ok) {
      // Each side quotes the transcript and the peer verifies it.
      const auto& transcript = channel_a->transcript_hash();
      const securecloud::ByteView body(transcript.data(), transcript.size());
      const auto sig_a = crypto::ed25519_sign(quote_key_a, body);
      const auto sig_b = crypto::ed25519_sign(quote_key_b, body);
      ok = crypto::ed25519_verify(quote_key_a.public_key, body, sig_a) &&
           crypto::ed25519_verify(quote_key_b.public_key, body, sig_b);
    }
    const std::uint64_t end = now_ns();
    report.check(ok, "handshake replay completes and verifies");
    samples.push_back(static_cast<double>(end - start) / 1e6);
  }
  return median(samples);
}

}  // namespace

Counters collect_counters(const std::vector<const securecloud::obs::NodeObs*>& nodes,
                          const securecloud::net::FabricStats& fabric) {
  Counters out = {
      {"fabric.messages_sent", static_cast<double>(fabric.messages_sent)},
      {"fabric.bytes_sent", static_cast<double>(fabric.bytes_sent)},
      {"fabric.timers_fired", static_cast<double>(fabric.timers_fired)},
  };
  for (const auto* node : nodes) {
    for (const auto& [name, value] : node->registry.snapshot().counters) {
      out[name] += static_cast<double>(value);
    }
  }
  return out;
}

double counter(const Counters& counters, const char* name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

CryptoEstimate report_stack(Report& report, const Counters& c, std::vector<CryptoOps> extra,
                            double enclave_transitions) {
  // Flow payloads are RLE-compressed, then sealed chunk by chunk.
  const double seals = counter(c, "transfer_send_chunks_total");
  extra.push_back({"flow chunks", seals, counter(c, "transfer_recv_accepted_total"),
                   seals > 0 ? counter(c, "transfer_send_wire_bytes_total") / seals : 0});
  extra.push_back({"session records", counter(c, "net_session_records_sent_total"),
                   counter(c, "net_session_records_received_total"), 64});
  // The replay probes run after the measured phase; they are spans of
  // the traced run all the same.
  Ledger& ledger = Ledger::get();
  const bool tracing = ledger.tracing();
  ledger.set_tracing(true);
  CryptoEstimate estimate;
  double handshake_ms = 0;
  {
    Span span("replay.crypto");
    estimate = replay_crypto(extra, report);
  }
  {
    Span span("replay.handshake");
    handshake_ms = replay_handshake_ms(report);
  }
  ledger.set_tracing(tracing);
  report.layer("crypto.gcm_seal_ns_per_op", estimate.seal_ns_per_op, "ns");
  report.layer("crypto.gcm_open_ns_per_op", estimate.open_ns_per_op, "ns");
  report.layer("crypto.ops", estimate.ops, "count");
  report.layer("crypto.est_s", estimate.est_s, "s");
  report.layer("crypto.handshake_ms", handshake_ms, "ms");

  report.layer("sgx.epc_faults", counter(c, "sgx_epc_faults_total"), "count");
  report.layer("sgx.epc_evictions", counter(c, "sgx_epc_evictions_total"), "count");
  report.layer("sgx.enclave_transitions", enclave_transitions, "count");

  report.layer("net.messages_sent", counter(c, "fabric.messages_sent"), "count");
  report.layer("net.bytes_sent", counter(c, "fabric.bytes_sent"), "B");
  report.layer("net.flow_chunks_sent", counter(c, "net_flow_chunks_sent_total"), "count");
  report.layer("net.flow_retransmits", counter(c, "net_flow_retransmits_total"), "count");
  report.layer("net.flow_nacks", counter(c, "net_flow_nacks_sent_total"), "count");
  report.layer("net.session_records_sent", counter(c, "net_session_records_sent_total"), "count");
  report.layer("net.timers_fired", counter(c, "fabric.timers_fired"), "count");
  return estimate;
}

void report_ops(Report& report, double units) {
  const Ledger& ledger = Ledger::get();
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    const std::string base = std::string("smartgrid.op.") + op_name(op);
    report.layer(base + ".busy_s", units > 0 ? ledger.op_busy_s(op) / units : 0, "s");
    report.layer(base + ".calls",
                 units > 0 ? static_cast<double>(ledger.op_calls(op)) / units : 0, "count");
  }
}

}  // namespace perfbench
