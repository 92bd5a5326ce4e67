/// \file spd_node.cpp
/// \brief Worker node: hosts channels and/or tasks of a distributed
///        pipeline, either from an explicit channel list or as one node
///        of a pipeline manifest.
///
/// Modes:
///
///   spd_node channels=frames:1:1,loc:1:2 [host=127.0.0.1] [port=0]
///            [capacity=0]
///       Channel-server only (ISSUE 3 launcher): hosts the listed
///       channels (`name:remote_producers:remote_consumers`) and serves
///       them over TCP. Remote peers drive the channels through
///       net::ChannelServer connection threads, so summary-STP folds,
///       DGC guarantees and trace events happen here as for local peers.
///
///   spd_node manifest=tracker.manifest node=front [key=value ...]
///       One worker of a manifest deployment (control plane, ISSUE 9):
///       parses the full manifest, validates it, and builds this node's
///       fragment — local channels + server on the node's fixed
///       endpoint, RemoteChannel proxies to every remote channel, local
///       task bodies from the pipeline registry. Extra key=value
///       arguments override manifest values (scale=0.25, aru=off, ...).
///
/// Common options: [seconds=30|0] [aru=min] [quiet=false]
/// [metrics_port=-1]. `seconds=0` runs until SIGTERM/SIGINT; both
/// signals stop the node gracefully (server stopped, Runtime stopped,
/// exit 0), so a supervisor can do clean rolling stops.
///
/// `metrics_port` enables the live telemetry endpoint (negative =
/// disabled, 0 = ephemeral). Bound ports are announced on stdout —
/// `spd_node: listening on <port>` / `spd_node: metrics on <port>` — and
/// flushed so parent processes can scrape them.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/fragment.hpp"
#include "control/manifest.hpp"
#include "control/pipelines.hpp"
#include "net/remote_channel.hpp"
#include "runtime/runtime.hpp"
#include "util/options.hpp"

using namespace stampede;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

/// Sleeps in short slices until `run_seconds` elapsed (<= 0: forever) or
/// a termination signal arrived.
void run_until(Runtime& rt, std::int64_t run_seconds) {
  const Nanos deadline = rt.clock().now() + seconds(run_seconds);
  while (g_stop == 0 && (run_seconds <= 0 || rt.clock().now() < deadline)) {
    rt.clock().sleep_for(millis(50));
  }
}

struct ChannelSpec {
  std::string name;
  int producers = 1;
  int consumers = 1;
};

/// Parses `name:P:C,name:P:C,...`; P and C default to 1 when omitted.
std::vector<ChannelSpec> parse_channels(const std::string& spec) {
  std::vector<ChannelSpec> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t end = std::min(spec.find(',', pos), spec.size());
    const std::string entry = spec.substr(pos, end - pos);
    if (!entry.empty()) {
      ChannelSpec cs;
      const std::size_t c1 = entry.find(':');
      cs.name = entry.substr(0, c1);
      if (c1 != std::string::npos) {
        const std::size_t c2 = entry.find(':', c1 + 1);
        cs.producers = std::stoi(entry.substr(c1 + 1, c2 - c1 - 1));
        if (c2 != std::string::npos) cs.consumers = std::stoi(entry.substr(c2 + 1));
      }
      if (cs.name.empty() || cs.producers < 0 || cs.consumers < 0) {
        throw std::invalid_argument("bad channel spec entry: '" + entry + "'");
      }
      out.push_back(std::move(cs));
    }
    pos = end + 1;
  }
  if (out.empty()) throw std::invalid_argument("channels= spec is empty");
  return out;
}

// ---------------------------------------------------------------------------
// channels= mode: standalone channel server
// ---------------------------------------------------------------------------

int run_channel_server(const Options& cli) {
  const auto specs = parse_channels(cli.get_string("channels", "frames:1:1"));
  const auto host = cli.get_string("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  const auto run_seconds = cli.get_int("seconds", 30);
  const auto capacity = static_cast<std::size_t>(cli.get_int("capacity", 0));
  const aru::Mode mode = aru::parse_mode(cli.get_string("aru", "min"));
  const bool quiet = cli.get_bool("quiet", false);
  const auto metrics_port = static_cast<std::int32_t>(cli.get_int("metrics_port", -1));

  RuntimeConfig cfg;
  cfg.aru.mode = mode;
  cfg.metrics_port = metrics_port;
  cfg.metrics_host = host;
  Runtime rt(std::move(cfg));
  std::vector<net::ServedChannel> served;
  served.reserve(specs.size());
  for (const auto& s : specs) {
    Channel& ch = rt.add_channel({.name = s.name, .capacity = capacity});
    served.push_back({.channel = &ch,
                      .remote_producers = s.producers,
                      .remote_consumers = s.consumers});
  }
  net::ChannelServer server(rt, served, {.host = host, .port = port});

  rt.start();
  server.start();

  // Parseable announcement: tests and parent processes scrape the port.
  std::printf("spd_node: listening on %u\n", static_cast<unsigned>(server.port()));
  if (rt.metrics_port() != 0) {
    std::printf("spd_node: metrics on %u\n", static_cast<unsigned>(rt.metrics_port()));
  }
  std::fflush(stdout);
  if (!quiet) {
    for (const auto& s : specs) {
      std::printf("spd_node:   channel '%s' (remote producers=%d consumers=%d)\n",
                  s.name.c_str(), s.producers, s.consumers);
    }
    std::fflush(stdout);
  }

  run_until(rt, run_seconds);

  server.stop();
  rt.stop();
  if (!quiet) {
    std::printf("spd_node: served %lld connection(s), exiting%s\n",
                static_cast<long long>(server.accepted()),
                g_stop != 0 ? " on signal" : "");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// manifest= mode: one node of a deployment
// ---------------------------------------------------------------------------

int run_manifest_node(const Options& cli) {
  const std::string path = cli.get_string("manifest", "");
  const std::string node = cli.get_string("node", "");
  if (node.empty()) {
    std::fprintf(stderr, "spd_node: manifest mode requires node=<name>\n");
    return 2;
  }
  Options opts = Options::parse_file(path);
  opts.merge(cli);  // command line (supervisor overrides) wins
  control::Manifest manifest = control::Manifest::parse(opts);
  const control::PipelineSpec* spec = control::find_pipeline(manifest.pipeline);
  if (spec == nullptr) {
    std::fprintf(stderr, "spd_node: unknown pipeline '%s'\n",
                 manifest.pipeline.c_str());
    return 2;
  }
  control::validate(manifest, *spec);
  const control::ManifestNode* self = manifest.find(node);
  if (self == nullptr) {
    std::fprintf(stderr, "spd_node: manifest has no node '%s'\n", node.c_str());
    return 2;
  }

  const auto run_seconds = opts.get_int("seconds", 0);
  const bool quiet = opts.get_bool("quiet", false);
  const auto metrics_port = static_cast<std::int32_t>(opts.get_int("metrics_port", -1));

  // Distinct per-node runtime seed (task RNG streams must not collide),
  // derived deterministically so reruns reproduce.
  RuntimeConfig cfg;
  cfg.aru.mode = manifest.params.aru;
  cfg.seed = manifest.params.seed + static_cast<std::uint64_t>(self->index);
  cfg.metrics_port = metrics_port;
  Runtime rt(std::move(cfg));
  control::Fragment frag = control::build_fragment(rt, manifest, *spec, node);

  rt.start();
  if (frag.server) {
    frag.server->start();
    std::printf("spd_node: listening on %u\n",
                static_cast<unsigned>(frag.server->port()));
  }
  if (rt.metrics_port() != 0) {
    std::printf("spd_node: metrics on %u\n", static_cast<unsigned>(rt.metrics_port()));
  }
  std::fflush(stdout);
  if (!quiet) {
    std::printf("spd_node: node '%s' of pipeline '%s': %zu task(s), %zu channel(s), "
                "%zu remote link(s)\n",
                node.c_str(), manifest.pipeline.c_str(), frag.tasks.size(),
                frag.channels.size(), frag.proxies.size());
    std::fflush(stdout);
  }

  run_until(rt, run_seconds);

  if (frag.server) frag.server->stop();
  rt.stop();
  if (!quiet) {
    std::printf("spd_node: node '%s' exiting%s\n", node.c_str(),
                g_stop != 0 ? " on signal" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  // Workers write through supervisor pipes; a reader that dies first must
  // not take the worker down with SIGPIPE mid-shutdown.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const Options cli = Options::parse(argc, argv);
    if (cli.has("manifest")) return run_manifest_node(cli);
    return run_channel_server(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spd_node: %s\n", e.what());
    return 1;
  }
}
