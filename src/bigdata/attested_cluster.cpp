#include "bigdata/attested_cluster.hpp"

#include <algorithm>

#include "bigdata/mapreduce.hpp"

namespace securecloud::bigdata {

AttestedCluster::AttestedCluster(net::Fabric& fabric, sgx::AttestationService& service,
                                 AttestedClusterConfig config)
    : fabric_(fabric),
      service_(service),
      config_(std::move(config)),
      image_(mapreduce_worker_image()),
      pin_(image_.expected_measurement()) {}

Result<std::size_t> AttestedCluster::add_node(std::string name, std::string platform_id,
                                              std::uint64_t entropy_seed) {
  Node& node = *nodes_.emplace_back(std::make_unique<Node>());
  node.id = fabric_.add_node(name);
  // The NodeObs is allocated before the platform: the other order gives
  // the same outputs but measured ~10% slower post-run reports (layout).
  if (config_.per_node_obs) {
    node.obs = std::make_unique<obs::NodeObs>(name, fabric_.clock(),
                                              static_cast<std::uint32_t>(node.id),
                                              config_.flight_capacity);
  }
  node.name = std::move(name);
  sgx::PlatformConfig platform_config;
  platform_config.platform_id = std::move(platform_id);
  platform_config.entropy_seed = entropy_seed;
  node.platform = std::make_unique<sgx::Platform>(platform_config);
  node.platform->provision(service_);
  if (node.obs) {
    // EPC pressure reports like the node's sessions and flows do: the
    // epc_thrash detector and sc-top read it.
    node.platform->memory().epc().set_flight(&node.obs->flight);
    node.platform->memory().epc().set_obs(&node.obs->registry);
  }
  auto enclave = node.platform->create_enclave(image_);
  if (!enclave.ok()) return enclave.error();
  node.enclave = *enclave;

  node.demux = std::make_unique<net::SessionDemux>(fabric_, node.id, kSessionChannel);
  SC_RETURN_IF_ERROR(node.demux->bind());
  return nodes_.size() - 1;
}

Status AttestedCluster::connect(std::size_t a, std::size_t b,
                                const net::LinkConfig& link) {
  return fabric_.connect(nodes_[a]->id, nodes_[b]->id, link);
}

net::AttestedSession& AttestedCluster::add_session(std::size_t self_index,
                                                   std::size_t peer_index,
                                                   net::AttestedSession::Role role) {
  Node& self = *nodes_[self_index];
  const Node& peer = *nodes_[peer_index];
  auto& session = self.sessions[peer_index];
  session = std::make_unique<net::AttestedSession>(
      role, net::AttestedSession::Config{
                .fabric = &fabric_,
                .self = self.id,
                .peer = peer.id,
                .channel = kSessionChannel,
                .enclave = self.enclave,
                .platform = self.platform.get(),
                .attestation = &service_,
                .expected_peer_mrenclave = pin_,
                .retry = config_.retry,
            });
  session->set_obs(registry_of(self));
  if (self.obs) session->set_flight(&self.obs->flight);
  self.demux->add(peer.id, session.get());
  return *session;
}

Status AttestedCluster::establish_edge(std::size_t up, std::size_t down,
                                       ByteView release_record, OnRecord on_record) {
  const Node& a = *nodes_[up];
  const Node& b = *nodes_[down];
  // Both ends are heap objects nothing erases, so `on_record` may call
  // attach_flow() from inside the responder's handler.
  auto& responder = add_session(down, up, net::AttestedSession::Role::kResponder);
  responder.set_on_record(std::move(on_record));
  auto& initiator = add_session(up, down, net::AttestedSession::Role::kInitiator);

  SC_RETURN_IF_ERROR(initiator.start());
  fabric_.run_until_idle();
  for (const net::AttestedSession* side : {&initiator, &responder}) {
    if (side->established()) continue;
    return side->failure().ok()
               ? Error::unavailable("handshake between '" + a.name + "' and '" +
                                    b.name + "' did not finish")
               : side->failure().error();
  }
  // The only place the released secret crosses the wire, sealed.
  SC_RETURN_IF_ERROR(initiator.send(release_record));
  fabric_.run_until_idle();
  if (!b.flow) return Error::protocol("'" + b.name + "' did not accept the release");
  return {};
}

FlowNode& AttestedCluster::attach_flow(std::size_t index, ByteView key) {
  Node& node = *nodes_[index];
  node.flow = std::make_unique<FlowNode>(fabric_, node.id, key, config_.flow);
  node.flow->set_obs(registry_of(node));
  if (node.obs) node.flow->set_flight(&node.obs->flight);
  return *node.flow;
}

Bytes AttestedCluster::mint_key(std::size_t root, const OnJoin& on_join) {
  Bytes key = platform(root).entropy().bytes(16);
  on_join(root, attach_flow(root, key));
  return key;
}

Status AttestedCluster::establish_key_edge(std::size_t up, std::size_t down,
                                           ByteView key, const OnJoin& on_join) {
  return establish_edge(up, down, key_record(key), [this, down, on_join](Bytes record) {
    if (FlowNode* flow = accept_key(down, record)) on_join(down, *flow);
  });
}

Bytes AttestedCluster::key_record(ByteView key) {
  // put_blob's layout, written in place: GCC 12 flags appending to a
  // fresh small vector as an out-of-bounds write.
  Bytes record(4 + key.size());
  store_le32(record, static_cast<std::uint32_t>(key.size()));
  std::copy(key.begin(), key.end(), record.begin() + 4);
  return record;
}

FlowNode* AttestedCluster::accept_key(std::size_t node, ByteView record) {
  ByteReader r(record);
  Bytes key;
  if (!r.get_blob(key) || !r.done() || key.empty()) return nullptr;
  return &attach_flow(node, key);
}

Status AttestedCluster::health() const {
  for (const auto& node : nodes_) {
    if (node->flow) SC_RETURN_IF_ERROR(node->flow->health());
    for (const auto& [peer, session] : node->sessions) {
      if (session->established()) continue;
      const std::string edge =
          "session '" + node->name + "' <-> '" + nodes_[peer]->name + "'";
      if (session->failure().ok()) return Error::unavailable(edge + " not established");
      const Error& failure = session->failure().error();
      return Error{failure.code, edge + ": " + failure.message};
    }
  }
  return {};
}

Result<obs::ClusterSnapshot> AttestedCluster::snapshot() const {
  if (!config_.per_node_obs) return Error::protocol("cluster is in shared-registry mode");
  std::vector<obs::NodeSnapshot> nodes;
  for (const auto& node : nodes_) nodes.push_back(node->obs->snapshot());
  return obs::merge_snapshots(std::move(nodes));
}

net::AttestedSession* AttestedCluster::session(std::size_t node, std::size_t peer) const {
  const auto& sessions = nodes_[node]->sessions;
  const auto it = sessions.find(peer);
  return it == sessions.end() ? nullptr : it->second.get();
}

}  // namespace securecloud::bigdata
