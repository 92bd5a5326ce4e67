#include "control/fragment.hpp"

#include <map>
#include <stdexcept>

namespace stampede::control {

namespace {

const std::string& node_of_task(const Manifest& m, const std::string& task) {
  const auto it = m.task_node.find(task);
  if (it == m.task_node.end()) {
    throw std::invalid_argument("fragment: task '" + task + "' has no placement");
  }
  return it->second;
}

/// A proxy config addressing `channel` on its hosting node. Built by
/// member assignment: gcc 12 flags the string a braced nested
/// TransportConfig leaves behind as maybe-uninitialized.
net::RemoteChannelConfig proxy_config(const Manifest& m, const std::string& channel) {
  const ManifestNode& host = m.channel_host(channel);
  net::RemoteChannelConfig config;
  config.name = channel;
  config.transport.host = host.endpoint.host;
  config.transport.port = host.endpoint.port;
  return config;
}

}  // namespace

ChannelSlots remote_slots(const Manifest& m, const PipelineSpec& spec,
                          const std::string& channel) {
  ChannelSlots slots;
  const auto host_it = m.channel_node.find(channel);
  if (host_it == m.channel_node.end()) {
    throw std::invalid_argument("fragment: channel '" + channel + "' has no placement");
  }
  const std::string& host = host_it->second;
  for (const PipelineSpec::Task& t : spec.tasks) {
    if (node_of_task(m, t.name) == host) continue;
    for (const std::string& out : t.outputs) {
      if (out == channel) slots.producers.push_back(t.name);
    }
    for (const std::string& in : t.inputs) {
      if (in == channel) slots.consumers.push_back(t.name);
    }
  }
  return slots;
}

Fragment build_fragment(Runtime& rt, const Manifest& m, const PipelineSpec& spec,
                        const std::string& node) {
  const ManifestNode* self = m.find(node);
  if (!self) {
    throw std::invalid_argument("fragment: unknown node '" + node + "'");
  }

  Fragment frag;
  frag.state = spec.make_state ? spec.make_state(m.params) : nullptr;

  // Local channels (spec order), plus the export list for remote peers.
  std::map<std::string, Channel*> local;
  std::vector<net::ServedChannel> served;
  for (const std::string& name : spec.channels) {
    if (m.channel_node.at(name) != node) continue;
    Channel& ch = rt.add_channel({.name = name});
    local[name] = &ch;
    frag.channels.push_back(name);
    const ChannelSlots slots = remote_slots(m, spec, name);
    if (!slots.producers.empty() || !slots.consumers.empty()) {
      served.push_back({.channel = &ch,
                        .remote_producers = static_cast<int>(slots.producers.size()),
                        .remote_consumers = static_cast<int>(slots.consumers.size())});
    }
  }
  if (!served.empty()) {
    net::ServerConfig server_config;
    server_config.host = self->endpoint.host;
    server_config.port = self->endpoint.port;
    frag.server = std::make_unique<net::ChannelServer>(rt, served, server_config);
  }

  // Slot claimed by (task, channel) on the serving side, or -1 if local.
  const auto slot_of = [&](const std::string& task, const std::string& channel,
                           bool producer) -> std::int32_t {
    const ChannelSlots slots = remote_slots(m, spec, channel);
    const auto& list = producer ? slots.producers : slots.consumers;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] == task) return static_cast<std::int32_t>(i);
    }
    throw std::invalid_argument("fragment: no remote slot for task '" + task +
                                "' on channel '" + channel + "'");
  };

  // Local tasks, wired in port order; remote channels get one proxy per
  // (task, channel, direction) so each proxy's two links keep their
  // single-writer discipline. The consumer proxies of one remote channel
  // share one replica slot, so an item both read is fetched once.
  std::map<std::string, std::shared_ptr<net::ReplicaShare>> shares;
  for (const PipelineSpec::Task& t : spec.tasks) {
    if (node_of_task(m, t.name) != node) continue;
    TaskBody body = spec.make_body(t.name, m.params, frag.state);
    if (!body) {
      throw std::invalid_argument("fragment: pipeline '" + spec.name +
                                  "' has no body factory for task '" + t.name + "'");
    }
    TaskContext& task = rt.add_task({.name = t.name, .body = std::move(body)});
    frag.tasks.push_back(t.name);

    for (const std::string& out : t.outputs) {
      if (const auto it = local.find(out); it != local.end()) {
        rt.connect(task, *it->second);
        continue;
      }
      net::RemoteChannelConfig config = proxy_config(m, out);
      config.producer_key = slot_of(t.name, out, /*producer=*/true);
      frag.proxies.push_back(std::make_unique<net::RemoteChannel>(rt, std::move(config)));
      rt.connect(task, *frag.proxies.back());
    }
    for (const std::string& in : t.inputs) {
      if (const auto it = local.find(in); it != local.end()) {
        rt.connect(*it->second, task);
        continue;
      }
      std::shared_ptr<net::ReplicaShare>& share = shares[in];
      if (!share) share = std::make_shared<net::ReplicaShare>();
      net::RemoteChannelConfig config = proxy_config(m, in);
      config.consumer_key = slot_of(t.name, in, /*producer=*/false);
      config.share = share;
      frag.proxies.push_back(std::make_unique<net::RemoteChannel>(rt, std::move(config)));
      rt.connect(*frag.proxies.back(), task);
    }
  }

  if (frag.channels.empty() && frag.tasks.empty()) {
    throw std::invalid_argument("fragment: node '" + node +
                                "' hosts no tasks and no channels");
  }
  return frag;
}

}  // namespace stampede::control
