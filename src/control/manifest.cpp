#include "control/manifest.hpp"

#include <stdexcept>
#include <string>

namespace stampede::control {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("manifest: " + what);
}

constexpr const char* kNodePrefix = "node.";
constexpr const char* kPlacePrefix = "place.";

bool has_prefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

Endpoint Endpoint::parse(const std::string& text, const std::string& what) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    throw std::invalid_argument("manifest: " + what + ": expected host:port, got '" +
                                text + "'");
  }
  Endpoint ep;
  ep.host = text.substr(0, colon);
  long port = 0;
  try {
    std::size_t used = 0;
    port = std::stol(text.substr(colon + 1), &used);
    if (used != text.size() - colon - 1) throw std::invalid_argument("junk");
  } catch (const std::exception&) {
    throw std::invalid_argument("manifest: " + what + ": bad port in '" + text + "'");
  }
  if (port <= 0 || port > 65535) {
    throw std::invalid_argument("manifest: " + what + ": port must be 1..65535 (got " +
                                std::to_string(port) +
                                "; ephemeral ports cannot survive a worker restart)");
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

Manifest Manifest::parse(const Options& opts) {
  Manifest m;
  m.raw = opts;
  m.pipeline = opts.get_string("pipeline", "");
  if (m.pipeline.empty()) bad("missing required key 'pipeline='");
  m.params = PipelineParams::from_options(opts);
  if (m.params.stride < 1) {
    bad("stride must be >= 1 (got " + std::to_string(m.params.stride) +
        "; the vision kernels step by it)");
  }

  for (const std::string& key : opts.keys()) {
    if (has_prefix(key, kNodePrefix)) {
      ManifestNode node;
      node.name = key.substr(std::string(kNodePrefix).size());
      if (node.name.empty()) bad("empty node name in '" + key + "='");
      node.endpoint = Endpoint::parse(opts.get_string(key, ""), key);
      node.index = static_cast<cluster::NodeIndex>(m.nodes.size());
      m.nodes.push_back(std::move(node));
    } else if (has_prefix(key, kPlacePrefix)) {
      const std::string entity = key.substr(std::string(kPlacePrefix).size());
      if (entity.empty()) bad("empty placement target in '" + key + "='");
      const std::string node = opts.get_string(key, "");
      if (node.empty()) bad(key + "= has no node name");
      // Task vs channel is resolved in validate() against the spec; store
      // in both maps and let validation move it to the right one.
      m.task_node[entity] = node;
    }
  }
  if (m.nodes.empty()) bad("no nodes declared (need at least one node.<name>=host:port)");
  return m;
}

Manifest Manifest::load(const std::string& path) {
  return parse(Options::parse_file(path));
}

const ManifestNode* Manifest::find(const std::string& node) const {
  for (const ManifestNode& n : nodes) {
    if (n.name == node) return &n;
  }
  return nullptr;
}

const ManifestNode& Manifest::channel_host(const std::string& channel) const {
  const auto it = channel_node.find(channel);
  if (it == channel_node.end()) bad("channel '" + channel + "' has no placement");
  const ManifestNode* node = find(it->second);
  if (!node) bad("channel '" + channel + "' placed on unknown node '" + it->second + "'");
  return *node;
}

cluster::Topology validate(Manifest& m, const PipelineSpec& spec) {
  if (m.pipeline != spec.name) {
    bad("manifest pipeline '" + m.pipeline + "' validated against spec '" + spec.name +
        "'");
  }

  // Node endpoints must be distinct: two workers cannot bind one port.
  for (std::size_t i = 0; i < m.nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < m.nodes.size(); ++j) {
      if (m.nodes[i].name == m.nodes[j].name) {
        bad("duplicate node name '" + m.nodes[i].name + "'");
      }
      if (m.nodes[i].endpoint.host == m.nodes[j].endpoint.host &&
          m.nodes[i].endpoint.port == m.nodes[j].endpoint.port) {
        bad("nodes '" + m.nodes[i].name + "' and '" + m.nodes[j].name +
            "' share endpoint " + m.nodes[i].endpoint.host + ":" +
            std::to_string(m.nodes[i].endpoint.port));
      }
    }
  }

  // Split the raw placements into tasks and channels against the spec.
  // parse() stored everything in task_node; rebuild both maps here.
  std::map<std::string, std::string> tasks;
  std::map<std::string, std::string> channels;
  for (const auto& [entity, node] : m.task_node) {
    if (!m.find(node)) {
      bad("'" + entity + "' placed on unknown node '" + node + "'");
    }
    if (spec.find_task(entity)) {
      tasks[entity] = node;
    } else if (spec.has_channel(entity)) {
      channels[entity] = node;
    } else {
      bad("place." + entity + "=: pipeline '" + spec.name + "' has no task or channel '" +
          entity + "'");
    }
  }
  for (const PipelineSpec::Task& t : spec.tasks) {
    if (!tasks.count(t.name)) bad("task '" + t.name + "' has no placement");
  }
  for (const std::string& c : spec.channels) {
    if (!channels.count(c)) bad("channel '" + c + "' has no placement");
  }

  // Placement indices must be valid in the topology the deployment
  // models: a uniform cluster over the manifest's nodes with the paper's
  // gigabit links.
  const cluster::Topology topo = cluster::Topology::uniform(
      static_cast<int>(m.nodes.size()), cluster::Topology::gigabit_link());
  for (const ManifestNode& n : m.nodes) {
    if (!topo.valid(n.index)) {
      bad("node '" + n.name + "' index " + std::to_string(n.index) +
          " is outside the topology");
    }
  }

  // Publish the resolved split back into the manifest.
  m.task_node = std::move(tasks);
  m.channel_node = std::move(channels);
  return topo;
}

}  // namespace stampede::control
