// The attested-cluster runtime: the one bring-up DistributedMapReduce,
// streams::Pipeline and scbr::FabricOverlay share (DESIGN.md, "Attested
// cluster bring-up"). No node receives a secret before it proved what
// code it runs: add_node() builds a fabric node, its observability, a
// provisioned platform and an enclave of the canonical worker image;
// establish_edge() runs a pinned AttestedSession pair and sends exactly
// one sealed release record (a key, a job configuration) down it. The
// driver keeps its topology walk, its release record and its handlers.
// Nodes, links, sessions and flows are created exactly when the driver
// calls in, so exports stay bit-identical to the driver's walk order.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bigdata/flow.hpp"
#include "net/session_demux.hpp"
#include "obs/cluster.hpp"
#include "sgx/platform.hpp"

namespace securecloud::bigdata {

struct AttestedClusterConfig {
  net::AttestedSession::Config::RetryConfig retry;  // every session
  FlowConfig flow;                                  // every FlowNode
  /// True: each node owns an obs::NodeObs. False: every node reports into
  /// `shared_registry` (null: observability off) and nothing is traced.
  bool per_node_obs = true;
  std::size_t flight_capacity = 64;
  obs::Registry* shared_registry = nullptr;
};

/// The cluster config of a driver whose own config carries the session
/// retry, flow and flight-ring fields under these names (streams, the
/// overlay); a null `shared_registry` gives every node its own NodeObs.
template <typename DriverConfig>
AttestedClusterConfig cluster_config(const DriverConfig& config,
                                     obs::Registry* shared_registry) {
  return {.retry = {config.session_retransmit_timeout_ns, config.session_max_retries},
          .flow = config.flow,
          .per_node_obs = shared_registry == nullptr,
          .flight_capacity = config.flight_capacity,
          .shared_registry = shared_registry};
}

class AttestedCluster {
 public:
  static constexpr std::uint32_t kSessionChannel = 1;
  using OnRecord = std::function<void(Bytes record)>;
  using OnJoin = std::function<void(std::size_t node, FlowNode& flow)>;

  /// `fabric` and `service` must outlive the cluster.
  AttestedCluster(net::Fabric& fabric, sgx::AttestationService& service,
                  AttestedClusterConfig config = {});
  AttestedCluster(const AttestedCluster&) = delete;
  AttestedCluster& operator=(const AttestedCluster&) = delete;

  /// Returns the node's cluster index (0, 1, ... in call order); the
  /// fabric node and its NodeObs are named `name`.
  Result<std::size_t> add_node(std::string name, std::string platform_id,
                               std::uint64_t entropy_seed);
  Status connect(std::size_t a, std::size_t b, const net::LinkConfig& link);

  /// Handshake, then `release_record` sealed from `up`; `down` hands each
  /// record it opens to `on_record`. Errors: the session's typed failure
  /// (kAttestationFailure on a wrong pin, kUnavailable on an exhausted
  /// retransmit budget), kUnavailable for an unfinished handshake,
  /// kProtocolError when `down` attached no flow in answer.
  Status establish_edge(std::size_t up, std::size_t down, ByteView release_record,
                        OnRecord on_record);

  /// (Re)builds the node's FlowNode under `key`, wired to its registry
  /// and flight ring; the caller installs the payload handlers.
  FlowNode& attach_flow(std::size_t node, ByteView key);

  /// Key release, the protocol of every driver whose release record is
  /// the data-plane key: `root` mints the key from its platform entropy
  /// and attaches its flow; each establish_key_edge() sends the key down
  /// one edge, and `down` attaches its flow when it accepts the record.
  /// `on_join` gets each new flow to install the node's payload handler.
  Bytes mint_key(std::size_t root, const OnJoin& on_join);
  Status establish_key_edge(std::size_t up, std::size_t down, ByteView key,
                            const OnJoin& on_join);

  /// The key-release record (one length-prefixed key) and its receiving
  /// end: a malformed record, trailing bytes or an empty key attach no
  /// flow and return nullptr.
  static Bytes key_record(ByteView key);
  FlowNode* accept_key(std::size_t node, ByteView record);

  /// First failure in node order: the node's flow, then its sessions by
  /// peer, named by edge.
  Status health() const;
  /// Every node's NodeSnapshot, merged; kProtocolError in shared mode.
  Result<obs::ClusterSnapshot> snapshot() const;

  std::size_t size() const { return nodes_.size(); }
  net::NodeId node_id(std::size_t node) const { return nodes_[node]->id; }
  obs::NodeObs* obs(std::size_t node) const { return nodes_[node]->obs.get(); }
  obs::Tracer* tracer(std::size_t n) const { return obs(n) ? &obs(n)->tracer : nullptr; }
  obs::Registry* registry(std::size_t node) const { return registry_of(*nodes_[node]); }
  sgx::Platform& platform(std::size_t node) { return *nodes_[node]->platform; }
  FlowNode* flow(std::size_t node) const { return nodes_[node]->flow.get(); }
  /// The session `node` terminates toward `peer`, or null.
  net::AttestedSession* session(std::size_t node, std::size_t peer) const;

 private:
  struct Node {
    std::string name;
    net::NodeId id = 0;
    std::unique_ptr<obs::NodeObs> obs;  // first: outlives all that reports to it
    std::unique_ptr<sgx::Platform> platform;
    sgx::Enclave* enclave = nullptr;
    std::unique_ptr<net::SessionDemux> demux;
    std::map<std::size_t, std::unique_ptr<net::AttestedSession>> sessions;  // by peer
    std::unique_ptr<FlowNode> flow;
  };

  obs::Registry* registry_of(const Node& node) const {
    return node.obs ? &node.obs->registry : config_.shared_registry;
  }
  net::AttestedSession& add_session(std::size_t self, std::size_t peer,
                                    net::AttestedSession::Role role);

  net::Fabric& fabric_;
  sgx::AttestationService& service_;
  AttestedClusterConfig config_;
  sgx::EnclaveImage image_;
  sgx::Measurement pin_;  // MRENCLAVE every session requires of its peer
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace securecloud::bigdata
