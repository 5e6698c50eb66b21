// Attested-cluster runtime tests: the helper's own contract (typed
// handshake failures, totality of the key-release record, health naming
// the failed edge, shared-mode snapshot), the EPC observability every
// driver built on it now carries, and DistributedMapReduce teardown with
// spans still open.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bigdata/attested_cluster.hpp"
#include "bigdata/distributed_mapreduce.hpp"
#include "bigdata/mapreduce.hpp"
#include "common/fault_injector.hpp"
#include "crypto/entropy.hpp"
#include "scbr/fabric_overlay.hpp"
#include "streams/pipeline.hpp"

namespace securecloud::bigdata {
namespace {

using common::FaultInjector;
using common::FaultKind;

struct Rig {
  SimClock clock;
  net::Fabric fabric{clock};
  sgx::AttestationService service;
  AttestedCluster cluster;

  explicit Rig(AttestedClusterConfig config = {})
      : cluster(fabric, service, std::move(config)) {
    EXPECT_TRUE(cluster.add_node("alpha", "platform-alpha", 0xA1).ok());
    EXPECT_TRUE(cluster.add_node("beta", "platform-beta", 0xB2).ok());
    EXPECT_TRUE(cluster.connect(0, 1, {}).ok());
  }

  /// One edge alpha -> beta whose record is accepted as a key release.
  Status release(ByteView record) {
    return cluster.establish_edge(0, 1, record,
                                  [this](Bytes r) { (void)cluster.accept_key(1, r); });
  }
};

const Bytes kKey(16, 0x5a);

TEST(AttestedCluster, ReleasesTheKeyAndAttachesTheFlow) {
  Rig rig;
  std::vector<std::size_t> joined;
  const auto join = [&joined](std::size_t node, FlowNode&) { joined.push_back(node); };
  const Bytes key = rig.cluster.mint_key(0, join);
  EXPECT_EQ(key.size(), 16u);
  ASSERT_TRUE(rig.cluster.establish_key_edge(0, 1, key, join).ok());
  EXPECT_EQ(joined, (std::vector<std::size_t>{0, 1}));
  ASSERT_NE(rig.cluster.flow(1), nullptr);
  EXPECT_TRUE(rig.cluster.health().ok());

  // The released key works: a payload crosses the new flow.
  std::string got;
  rig.cluster.flow(1)->set_on_payload(
      [&](net::NodeId, Bytes payload) { got.assign(payload.begin(), payload.end()); });
  ASSERT_TRUE(rig.cluster.flow(0)->send(rig.cluster.node_id(1), to_bytes("hi")).ok());
  rig.fabric.run_until_idle();
  EXPECT_EQ(got, "hi");
}

TEST(AttestedCluster, WrongPinIsATypedAttestationFailure) {
  // An impostor answers on beta's session channel: a genuine, provisioned
  // platform and an image signed by the same key, but with other code,
  // so its quote verifies and only the MRENCLAVE pin refuses it.
  Rig rig;
  sgx::EnclaveImage image = mapreduce_worker_image();
  image.code = to_bytes("securecloud-mapreduce-worker-impostor");
  crypto::DeterministicEntropy signer(0x4d52);
  sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
  sgx::PlatformConfig platform_config;
  platform_config.platform_id = "platform-impostor";
  platform_config.entropy_seed = 0xBAD;
  sgx::Platform platform(platform_config);
  platform.provision(rig.service);
  auto enclave = platform.create_enclave(image);
  ASSERT_TRUE(enclave.ok());
  net::AttestedSession impostor(net::AttestedSession::Role::kResponder,
                                {.fabric = &rig.fabric,
                                 .self = rig.cluster.node_id(1),
                                 .peer = rig.cluster.node_id(0),
                                 .channel = AttestedCluster::kSessionChannel,
                                 .enclave = *enclave,
                                 .platform = &platform,
                                 .attestation = &rig.service,
                                 .expected_peer_mrenclave = std::nullopt,
                                 .retry = {}});
  ASSERT_TRUE(rig.fabric
                  .set_handler(rig.cluster.node_id(1), AttestedCluster::kSessionChannel,
                               [&impostor](const net::Message& m) { impostor.on_message(m); })
                  .ok());

  const Status status = rig.release(AttestedCluster::key_record(kKey));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kAttestationFailure);
  EXPECT_NE(status.error().message.find("MRENCLAVE"), std::string::npos)
      << status.error().message;
  EXPECT_EQ(rig.cluster.flow(1), nullptr);

  // health() names the edge that failed, keeping the session's code.
  const Status health = rig.cluster.health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.error().code, ErrorCode::kAttestationFailure);
  EXPECT_NE(health.error().message.find("'alpha'"), std::string::npos)
      << health.error().message;
  EXPECT_NE(health.error().message.find("'beta'"), std::string::npos)
      << health.error().message;
}

TEST(AttestedCluster, ExhaustedRetransmitBudgetIsUnavailable) {
  AttestedClusterConfig config;
  config.retry = {.retransmit_timeout_ns = 1'000'000, .max_retries = 3};
  Rig rig(config);
  FaultInjector faults(7, &rig.clock);
  faults.arm(FaultKind::kNetLoss, 1.0);  // every handshake frame is lost
  rig.fabric.set_fault_injector(&faults);
  const Status status = rig.release(AttestedCluster::key_record(kKey));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(rig.cluster.flow(1), nullptr);
  EXPECT_FALSE(rig.cluster.health().ok());
}

TEST(AttestedCluster, KeyRecordDecodingIsTotal) {
  const Bytes record = AttestedCluster::key_record(kKey);
  ASSERT_EQ(record.size(), 4 + kKey.size());
  // Every strict prefix, and a well-formed record carrying an empty key,
  // is refused with no flow attached.
  for (std::size_t n = 0; n < record.size(); ++n) {
    Rig rig;
    const Status status = rig.release(ByteView(record).first(n));
    EXPECT_FALSE(status.ok()) << "prefix " << n;
    EXPECT_EQ(rig.cluster.flow(1), nullptr) << "prefix " << n;
  }
  Rig empty;
  const Status status = empty.release(AttestedCluster::key_record({}));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kProtocolError);
  EXPECT_EQ(empty.cluster.flow(1), nullptr);
  // Trailing bytes are refused too.
  Bytes trailing = record;
  trailing.push_back(0);
  Rig padded;
  EXPECT_FALSE(padded.release(trailing).ok());
  EXPECT_EQ(padded.cluster.flow(1), nullptr);
}

TEST(AttestedCluster, EveryByteFlipOfTheSealedRecordIsRejected) {
  // The record travels sealed in the session: flip each byte of it on
  // the wire, between the fabric and beta's session.
  const auto run = [](std::optional<std::size_t> flip, std::size_t* wire_size) {
    Rig rig;
    rig.cluster.attach_flow(0, kKey);
    AttestedCluster& cluster = rig.cluster;
    const net::NodeId beta = cluster.node_id(1);
    EXPECT_TRUE(rig.fabric
                    .set_handler(beta, AttestedCluster::kSessionChannel,
                                 [&cluster, flip, wire_size](const net::Message& m) {
                                   net::AttestedSession* session = cluster.session(1, 0);
                                   if (session == nullptr) return;
                                   net::Message copy = m;
                                   if (session->established()) {  // the record
                                     if (wire_size != nullptr) *wire_size = copy.payload.size();
                                     if (flip && *flip < copy.payload.size()) {
                                       copy.payload[*flip] ^= 0xff;
                                     }
                                   }
                                   session->on_message(copy);
                                 })
                    .ok());
    const Status status = rig.release(AttestedCluster::key_record(kKey));
    return std::make_pair(status, cluster.flow(1) != nullptr);
  };

  std::size_t wire_size = 0;
  const auto clean = run(std::nullopt, &wire_size);
  ASSERT_TRUE(clean.first.ok());
  ASSERT_TRUE(clean.second);
  ASSERT_GT(wire_size, AttestedCluster::key_record(kKey).size());
  for (std::size_t i = 0; i < wire_size; ++i) {
    const auto [status, attached] = run(i, nullptr);
    EXPECT_FALSE(status.ok()) << "byte " << i;
    EXPECT_FALSE(attached) << "byte " << i;
  }
}

TEST(AttestedCluster, SnapshotIsAProtocolErrorInSharedRegistryMode) {
  obs::Registry registry;
  AttestedClusterConfig config;
  config.per_node_obs = false;
  config.shared_registry = &registry;
  Rig rig(config);
  EXPECT_EQ(rig.cluster.obs(0), nullptr);
  const auto snapshot = rig.cluster.snapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.error().code, ErrorCode::kProtocolError);

  Rig per_node;
  const auto merged = per_node.cluster.snapshot();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->nodes.size(), 2u);
}

// ------------------------------------------- EPC observability everywhere

void expect_epc_gauges(const obs::ClusterSnapshot& snapshot, std::size_t nodes) {
  ASSERT_EQ(snapshot.nodes.size(), nodes);
  for (const auto& node : snapshot.nodes) {
    EXPECT_EQ(node.metrics.gauges.count("sgx_epc_resident_pages"), 1u) << node.node;
    EXPECT_EQ(node.metrics.counters.count("sgx_epc_accesses_total"), 1u) << node.node;
  }
}

TEST(AttestedCluster, PipelineSnapshotCarriesEpcGaugesForEveryStage) {
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;
  auto stages = streams::PipelineBuilder()
                    .source("src", []() -> std::optional<streams::Record> {
                      return std::nullopt;
                    })
                    .map("map", [](const streams::Record& r) { return r; })
                    .sink("sink", [](const streams::Record&, std::uint64_t) {})
                    .build();
  ASSERT_TRUE(stages.ok());
  streams::Pipeline pipeline(fabric, *stages);
  ASSERT_TRUE(pipeline.setup(service).ok());
  ASSERT_TRUE(pipeline.run().ok());
  const auto snapshot = pipeline.cluster_snapshot();
  ASSERT_TRUE(snapshot.ok());
  expect_epc_gauges(*snapshot, 3);
}

TEST(AttestedCluster, OverlaySnapshotCarriesEpcGaugesForEveryBroker) {
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;
  scbr::FabricOverlayConfig config;
  config.broker_count = 4;
  scbr::FabricOverlay overlay(fabric, config);
  ASSERT_TRUE(overlay.setup(service).ok());
  const auto snapshot = overlay.cluster_snapshot();
  ASSERT_TRUE(snapshot.ok());
  expect_epc_gauges(*snapshot, 4);
}

// ------------------------------------------------ DMR teardown and set_obs

std::vector<KeyValue> count_words(ByteView record) {
  std::vector<KeyValue> pairs;
  std::string word;
  for (std::uint8_t c : record) {
    if (c != ' ') {
      word += static_cast<char>(c);
      continue;
    }
    if (!word.empty()) pairs.push_back({word, 1.0});
    word.clear();
  }
  if (!word.empty()) pairs.push_back({word, 1.0});
  return pairs;
}

double sum(const std::string&, const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

std::vector<std::vector<Bytes>> partitions(DistributedMapReduce& driver) {
  std::vector<std::vector<Bytes>> out;
  for (const char* line : {"secure cloud data", "cloud enclave data", "secure shuffle",
                           "enclave attestation", "data in the cloud", "secure job"}) {
    const std::string text = line;
    out.push_back(driver.encrypt_partition({Bytes(text.begin(), text.end())}));
  }
  return out;
}

TEST(DistributedTeardown, DriverWithOpenWorkerSpansDestroysCleanly) {
  // A worker killed mid-map leaves its MapExec span open forever; the
  // driver's destructor then ends it, which reads the worker's tracer.
  // Under SECURECLOUD_SANITIZE=address this test is the regression for
  // that tracer outliving every span.
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;
  DistributedMapReduceConfig config;
  config.num_workers = 4;
  config.num_reducers = 5;
  config.map_compute_ns_per_record = 1'000'000;
  auto driver = std::make_unique<DistributedMapReduce>(fabric, config);
  driver->enable_cluster_obs();
  ASSERT_TRUE(driver->setup(service).ok());
  driver->schedule_worker_kill(1, 1'500'000);
  const auto result = driver->run(partitions(*driver), count_words, sum);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_FALSE(driver->worker_alive(1));
  EXPECT_GT(driver->coordinator_obs()
                ->registry.counter("dist_mapreduce_worker_deaths_total")
                .value(),
            0u);
  driver.reset();
}

TEST(DistributedTeardown, SetObsAfterSetupIsANoOp) {
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;
  DistributedMapReduce driver(fabric, {});
  ASSERT_TRUE(driver.setup(service).ok());
  obs::Registry late;
  driver.set_obs(&late);
  ASSERT_TRUE(driver.run(partitions(driver), count_words, sum).ok());
  EXPECT_TRUE(late.snapshot().counters.empty());
}

}  // namespace
}  // namespace securecloud::bigdata
