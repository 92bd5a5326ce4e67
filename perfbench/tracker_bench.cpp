/// \file tracker_bench.cpp
/// \brief One run of one end-to-end tracker workload (paper Fig. 5).
///
///   tracker_bench --workload paper-cfg2|fullres-local|fullres-loopback
///                 --seed N --seconds S --trace 0|1 --workdir DIR
///
/// A run deploys the workload kSetups times only to time set-up
/// (construction to the first result at the sink), then once more to
/// measure: warm-up, S timed seconds, teardown. With --trace 1 the timed
/// part is two deployments of S/2 seconds each, the second with the
/// benchmark's spans switched on; it reports the per-layer split. Every deployment is checked after full teardown.
/// The single line of output is a JSON object that perfbench/run.py
/// turns into the report and the gate.
#include <dirent.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control/fragment.hpp"
#include "control/manifest.hpp"
#include "control/pipelines.hpp"
#include "metrics.hpp"
#include "runtime/runtime.hpp"
#include "stats/breakdown.hpp"
#include "stats/postmortem.hpp"
#include "vision/tracker.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace stampede;
using perfbench::Check;
using perfbench::Event;
using perfbench::EventType;
using perfbench::NodeRef;
using perfbench::Ts;
using perfbench::Window;

namespace {

constexpr double kMb = 1024.0 * 1024.0;

/// Detection bounds for paper-cfg2 against SceneGenerator ground truth.
constexpr double kMinFoundShare = 0.85;
constexpr double kMaxMeanErrorPx = 25.0;
/// Minimum latency samples behind a reported p95.
constexpr std::int64_t kMinResults = 200;
/// Deployments per run that only time set-up (the timed ones add theirs).
constexpr int kSetups = 6;
/// Warm-up from construction to the start of the timed window: ARU's
/// summary-STP settles and the payload pool fills well within it.
constexpr double kWarmupS = 2.0;

/// Stage names as the report uses them; paper-cfg2's build_tracker names
/// the detectors detect-m1/detect-m2.
const std::vector<std::string> kStages = {"digitizer", "background", "histogram",
                                          "detect1",   "detect2",    "gui"};
const std::vector<std::string> kChannels = {"frames", "masks", "hists", "loc1", "loc2"};

std::int64_t now_ns() { return RealClock::instance().now().count(); }

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Restarts the process's peak-RSS high-water mark (VmHWM).
void reset_rss_peak() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak RSS since the last reset_rss_peak(), in MB.
double rss_peak_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0.0;
}

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<std::int64_t>(s * 1e9)));
}

/// A loopback port that was free a moment ago (the kernel's ephemeral pick).
std::uint16_t free_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  const bool ok = bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
                  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  close(fd);
  if (!ok) throw std::runtime_error("could not pick a free loopback port");
  return ntohs(addr.sin_port);
}

/// Host CPU time stolen by the hypervisor and total host CPU time, in
/// jiffies since boot (first line of /proc/stat).
std::pair<std::int64_t, std::int64_t> host_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::int64_t total = 0;
  std::int64_t steal = 0;
  std::int64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;  // user nice system idle iowait irq softirq steal
  }
  return {steal, total};
}

// ---------------------------------------------------------------------------
// Benchmark spans around the vision stage bodies
// ---------------------------------------------------------------------------

/// Per-stage span totals. Each is written only by its stage's thread and
/// read by the control thread between snapshots.
struct StageSpan {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> wall_ns{0};
  std::atomic<std::int64_t> cpu_ns{0};
};
using Spans = std::map<std::string, StageSpan>;

struct SpanTotals {
  std::int64_t calls = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
};

SpanTotals read(const StageSpan& s) {
  return {s.calls.load(std::memory_order_relaxed), s.wall_ns.load(std::memory_order_relaxed),
          s.cpu_ns.load(std::memory_order_relaxed)};
}

/// A copy of the registered spec whose bodies delegate to the registered
/// factory; with `spans` set, every call is wrapped in a wall-clock and
/// thread-CPU span.
control::PipelineSpec traced_spec(const control::PipelineSpec& base, Spans* spans) {
  control::PipelineSpec spec = base;
  spec.make_body = [make = base.make_body, spans](
                       const std::string& task, const control::PipelineParams& params,
                       const std::shared_ptr<void>& state) -> TaskBody {
    TaskBody inner = make(task, params, state);
    if (spans == nullptr || !inner) return inner;
    StageSpan* span = &(*spans)[task];
    return [inner = std::move(inner), span](TaskContext& ctx) {
      const std::int64_t w0 = now_ns();
      const std::int64_t c0 = thread_cpu_ns();
      const TaskStatus status = inner(ctx);
      span->cpu_ns.fetch_add(thread_cpu_ns() - c0, std::memory_order_relaxed);
      span->wall_ns.fetch_add(now_ns() - w0, std::memory_order_relaxed);
      span->calls.fetch_add(1, std::memory_order_relaxed);
      return status;
    };
  };
  return spec;
}

/// Task thread ids of this process.
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> out;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* d = readdir(dir)) {
      if (d->d_name[0] != '.') out.push_back(static_cast<pid_t>(std::atoi(d->d_name)));
    }
    closedir(dir);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// CPU time of another thread of this process, read through the clock id
/// Linux assigns it (what pthread_getcpuclockid builds from a thread id:
/// the inverted id above the per-thread scheduler-clock bits).
std::int64_t thread_oncpu_ns(pid_t tid) {
  const auto id = static_cast<clockid_t>((~static_cast<std::uint32_t>(tid) << 3) | 6u);
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// Live telemetry snapshots (Prometheus text of each Runtime's registry)
// ---------------------------------------------------------------------------

/// Sum over every series of `name` (all label sets) in exposition `text`.
double prom_sum(const std::string& text, const std::string& name) {
  double total = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size(), name) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != '{' && next != ' ') continue;
    total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return total;
}

/// Cumulative rpc-latency bucket counts (upper bound in ns -> count),
/// summed over every link of exposition `text`.
using Buckets = std::map<double, double>;
void add_rpc_buckets(const std::string& text, Buckets& out) {
  const std::string name = "aru_net_rpc_latency_ns_bucket{";
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size(), name) != 0) continue;
    const std::size_t le = line.find("le=\"");
    if (le == std::string::npos) continue;
    const std::string bound = line.substr(le + 4, line.find('"', le + 4) - le - 4);
    out[bound == "+Inf" ? INFINITY : std::stod(bound)] +=
        std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
}

/// Percentile `q` (0..1) in microseconds of the observations between two
/// bucket snapshots, interpolated linearly inside the bucket (0 without
/// observations).
double bucket_percentile_us(const Buckets& before, const Buckets& after, double q) {
  const auto delta = [&](const std::pair<const double, double>& b) {
    const auto it = before.find(b.first);
    return b.second - (it == before.end() ? 0.0 : it->second);
  };
  const double total = after.empty() ? 0.0 : delta(*after.rbegin());
  if (total <= 0) return 0.0;
  double lo_bound = 0.0;
  double lo_count = 0.0;
  for (const auto& b : after) {
    const double cum = delta(b);
    if (cum >= q * total) {
      const double hi = std::isinf(b.first) ? lo_bound : b.first;
      const double frac = cum > lo_count ? (q * total - lo_count) / (cum - lo_count) : 1.0;
      return (lo_bound + frac * (hi - lo_bound)) / 1e3;
    }
    lo_bound = b.first;
    lo_count = cum;
  }
  return lo_bound / 1e3;
}

// ---------------------------------------------------------------------------
// Workload deployments
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir = ".";
};

/// One deployment of a workload: one Runtime per fragment, front first.
struct Deployment {
  std::vector<std::string> names;
  std::vector<std::unique_ptr<Runtime>> rts;
  std::vector<control::Fragment> frags;
  std::optional<vision::TrackerHandles> handles;  ///< paper-cfg2 only
  /// paper-cfg2 traced runs: task threads in build_tracker's task order.
  std::vector<pid_t> task_threads;
  std::int64_t t_construct = 0;
  double build_fragment_ms = 0.0;
  double server_start_ms = 0.0;

  Runtime& sink_rt() { return *rts.back(); }

  /// Stops servers, runtimes and fragments, then takes every trace, so
  /// items held by proxies and servers are freed before the merge.
  std::vector<stats::Trace> teardown() {
    for (auto& f : frags) {
      if (f.server) f.server->stop();
    }
    for (auto& rt : rts) rt->stop();
    frags.clear();
    std::vector<stats::Trace> traces;
    for (auto& rt : rts) traces.push_back(rt->take_trace());
    return traces;
  }
};

std::string manifest_text(const Args& a, bool loopback) {
  std::ostringstream m;
  m << "pipeline=tracker\naru=min\nseed=" << a.seed << "\nscale=0.25\nstride=1\n";
  if (!loopback) {
    // One node and no remote edge: no server is built, the port is unused.
    m << "node.local=127.0.0.1:" << free_port() << "\n";
    for (const char* n : {"digitizer", "background", "histogram", "detect1", "detect2", "gui",
                          "frames", "masks", "hists", "loc1", "loc2"}) {
      m << "place." << n << "=local\n";
    }
    return m.str();
  }
  // Placement of examples/tracker.manifest, on ports picked for this run.
  std::vector<std::uint16_t> ports;
  while (ports.size() < 3) {
    const std::uint16_t p = free_port();
    if (std::find(ports.begin(), ports.end(), p) == ports.end()) ports.push_back(p);
  }
  m << "node.front=127.0.0.1:" << ports[0] << "\nnode.mid=127.0.0.1:" << ports[1]
    << "\nnode.back=127.0.0.1:" << ports[2] << "\n";
  m << "place.digitizer=front\n";
  for (const char* n : {"frames", "masks", "hists", "background", "histogram"}) {
    m << "place." << n << "=mid\n";
  }
  for (const char* n : {"detect1", "detect2", "loc1", "loc2", "gui"}) {
    m << "place." << n << "=back\n";
  }
  return m.str();
}

/// Builds and starts one deployment.
std::unique_ptr<Deployment> deploy(const Args& a, Spans* spans) {
  auto d = std::make_unique<Deployment>();
  if (a.workload == "paper-cfg2") {
    vision::TrackerOptions opts;
    opts.aru = aru::Mode::kMin;
    opts.cluster_config = 2;
    opts.seed = a.seed;
    d->names = {"cfg2"};
    d->t_construct = now_ns();
    d->rts.push_back(std::make_unique<Runtime>(vision::runtime_config(opts)));
    d->handles = vision::build_tracker(*d->rts[0], opts);
    const std::vector<pid_t> before = spans != nullptr ? thread_ids() : std::vector<pid_t>{};
    d->rts[0]->start();
    if (spans != nullptr) {
      for (const pid_t t : thread_ids()) {
        if (!std::binary_search(before.begin(), before.end(), t)) d->task_threads.push_back(t);
      }
    }
    return d;
  }

  const bool loopback = a.workload == "fullres-loopback";
  if (!loopback && a.workload != "fullres-local") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  const control::PipelineSpec* base = control::find_pipeline("tracker");
  if (base == nullptr) throw std::runtime_error("no registered 'tracker' pipeline");
  const control::PipelineSpec spec = traced_spec(*base, spans);

  // The manifest is written per run, so its ports never collide with a
  // fixed-port deployment or another run.
  const std::string path =
      a.workdir + "/tracker-" + std::to_string(getpid()) + ".manifest";
  {
    std::ofstream out(path);
    out << manifest_text(a, loopback);
  }
  control::Manifest manifest = control::Manifest::load(path);
  std::remove(path.c_str());
  control::validate(manifest, spec);

  d->names = loopback ? std::vector<std::string>{"front", "mid", "back"}
                      : std::vector<std::string>{"local"};
  d->t_construct = now_ns();
  for (const std::string& node : d->names) {
    const control::ManifestNode* self = manifest.find(node);
    // Per-node runtime seed, as a manifest worker derives it.
    RuntimeConfig cfg;
    cfg.aru.mode = manifest.params.aru;
    cfg.seed = manifest.params.seed + static_cast<std::uint64_t>(self->index);
    d->rts.push_back(std::make_unique<Runtime>(std::move(cfg)));
    const std::int64_t t0 = now_ns();
    d->frags.push_back(control::build_fragment(*d->rts.back(), manifest, spec, node));
    d->build_fragment_ms += static_cast<double>(now_ns() - t0) / 1e6;
  }
  // Serving fragments first, the source last: the digitizer's first put
  // finds its server listening.
  for (std::size_t i = d->rts.size(); i-- > 0;) {
    d->rts[i]->start();
    if (d->frags[i].server) {
      const std::int64_t t0 = now_ns();
      d->frags[i].server->start();
      d->server_start_ms += static_cast<double>(now_ns() - t0) / 1e6;
    }
  }
  return d;
}

/// Deploys, retrying when a freshly picked port was taken in between.
std::unique_ptr<Deployment> deploy_retrying(const Args& a, Spans* spans) {
  for (int attempt = 1;; ++attempt) {
    try {
      return deploy(a, spans);
    } catch (const std::runtime_error& e) {
      if (attempt >= 3 || a.workload != "fullres-loopback") throw;
      std::fprintf(stderr, "tracker_bench: deploy attempt %d failed (%s), retrying\n", attempt,
                   e.what());
    }
  }
}

// ---------------------------------------------------------------------------
// Scoring
// ---------------------------------------------------------------------------

perfbench::HostMark host_mark(std::int64_t t) {
  const auto [steal, total] = host_steal_jiffies();
  return {.t = t, .steal = steal, .total = total};
}

/// Live counters read at the edges of the timed window.
struct Snapshot {
  std::int64_t t = 0;
  double cpu_s = 0.0;
  std::vector<std::string> prom;
  std::int64_t pool_acquires = 0;
  std::int64_t pool_hits = 0;
  std::int64_t pool_misses = 0;
  std::int64_t proxy_drops = 0;
  std::map<std::string, SpanTotals> spans;
  std::map<pid_t, std::int64_t> oncpu;
};

Snapshot snapshot(Deployment& d, const Spans* spans) {
  Snapshot s;
  s.t = now_ns();
  s.cpu_s = process_cpu_s();
  for (auto& rt : d.rts) {
    s.prom.push_back(rt->metrics().render_prometheus());
    const PayloadPool::Stats p = rt->payload_pool().stats();
    s.pool_acquires += p.acquires;
    s.pool_hits += p.hits;
    s.pool_misses += p.misses;
  }
  for (const auto& f : d.frags) {
    for (const auto& proxy : f.proxies) s.proxy_drops += proxy->drops();
  }
  if (spans != nullptr) {
    for (const auto& [name, span] : *spans) s.spans[name] = read(span);
  }
  for (const pid_t t : d.task_threads) s.oncpu[t] = thread_oncpu_ns(t);
  return s;
}

double prom_delta(const Snapshot& a, const Snapshot& b, const std::string& name) {
  double total = 0.0;
  for (std::size_t i = 0; i < a.prom.size(); ++i) {
    total += prom_sum(b.prom[i], name) - prom_sum(a.prom[i], name);
  }
  return total;
}

/// Minimal JSON object writer (numbers and strings only).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
    out_ << '"' << key << "\":" << buf;
    return *this;
  }
  Json& str(const std::string& key, const std::string& v) {
    sep();
    out_ << '"' << key << "\":\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << (c == '\n' ? ' ' : c);
    }
    out_ << '"';
    return *this;
  }
  Json& raw(const std::string& key, const std::string& json) {
    sep();
    out_ << '"' << key << "\":" << json;
    return *this;
  }
  std::string done() const {
    std::string out(1, '{');
    out += out_.str();
    out += '}';
    return out;
  }

 private:
  void sep() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + items[i];
  return out + "]";
}

/// Everything a run reports, gathered across its deployments.
struct Report {
  std::vector<Check> checks;
  std::vector<double> setup_s;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Json metrics;  ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> stages;  ///< traced: stage accounting rows
  std::vector<std::string> path;    ///< traced: critical-path rows
  std::string info;                 ///< sample counts and secondary figures
};

/// The traces of one finished deployment with the ids the metrics need.
struct Scored {
  std::vector<stats::Trace> traces;
  const stats::Trace* front = nullptr;
  const stats::Trace* back = nullptr;
  NodeRef digitizer = -1;
  NodeRef gui = -1;
};

Scored collect(Deployment& d, Report& r) {
  Scored s;
  s.traces = d.teardown();
  s.front = &s.traces.front();
  s.back = &s.traces.back();
  s.digitizer = perfbench::find_node(*s.front, "digitizer");
  s.gui = perfbench::find_node(*s.back, "gui");
  for (std::size_t i = 0; i < s.traces.size(); ++i) {
    r.checks.push_back(perfbench::check_alloc_free_balance(s.traces[i], d.names[i]));
  }
  r.checks.push_back(perfbench::check_sink_increasing(*s.back, s.gui, d.names.back()));
  const Window all{.t0 = d.t_construct, .t1 = INT64_MAX};
  const auto first = perfbench::emits_in(*s.back, s.gui, all);
  if (!first.empty()) {
    r.setup_s.push_back(static_cast<double>(first.front().t - d.t_construct) / 1e9);
  }
  return s;
}

/// Trace of the stage named `stage` (its thread lives in exactly one).
const stats::Trace* trace_of_task(const Scored& s, const std::string& task, NodeRef* node) {
  for (const auto& t : s.traces) {
    const NodeRef n = perfbench::find_node(t, task);
    if (n >= 0) {
      *node = n;
      return &t;
    }
  }
  *node = -1;
  return nullptr;
}

std::string task_name(const Args& a, const std::string& stage) {
  if (a.workload == "paper-cfg2" && stage.rfind("detect", 0) == 0) {
    return "detect-m" + stage.substr(6);
  }
  return stage;
}

std::string channel_name(const Args& a, const std::string& ch) {
  if (a.workload != "paper-cfg2") return ch;
  const std::size_t i = std::find(kChannels.begin(), kChannels.end(), ch) - kChannels.begin();
  std::string name(1, 'C');
  name += std::to_string(i + 1);
  name += ':';
  name += ch;
  return name;
}

struct EndToEnd {
  std::int64_t results = 0;
  double fps = 0.0;
  perfbench::Percentile p50;
  perfbench::Percentile p95;
  double cpu_ms_per_frame = 0.0;
  double footprint_mb = 0.0;
  double igc_mb = 0.0;
  double wasted_mem_pct = 0.0;
  double wasted_comp_pct = 0.0;
  double analyze_ms = 0.0;
  double rss_peak_mb = 0.0;
  double steal_pct = 0.0;  ///< host CPU stolen by the hypervisor in the window
  double quiet_share = 0.0;  ///< share of the window fps and latency are scored over
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

EndToEnd score(Scored& s, const Snapshot& s0, const Snapshot& s1,
               const std::vector<perfbench::HostMark>& marks) {
  EndToEnd e;
  const Window w{.t0 = s0.t, .t1 = s1.t};
  e.results = perfbench::distinct_results(*s.back, s.gui, w);
  // Rates and latencies over the window's quieter seconds: on a shared
  // host, bursts of hypervisor steal delay every wake-up of the paced
  // stages and would otherwise set the spread of these metrics.
  std::int64_t quiet_results = 0;
  double quiet_seconds = 0.0;
  std::vector<double> lat;
  for (const Window& q : perfbench::quiet_slices(marks)) {
    quiet_results += perfbench::distinct_results(*s.back, s.gui, q);
    quiet_seconds += q.seconds();
    const std::vector<double> l =
        perfbench::ts_matched_latency_ms(*s.front, s.digitizer, *s.back, s.gui, q);
    lat.insert(lat.end(), l.begin(), l.end());
  }
  e.fps = quiet_seconds > 0 ? static_cast<double>(quiet_results) / quiet_seconds : 0.0;
  e.quiet_share = quiet_seconds / w.seconds();
  e.p50 = perfbench::tail_percentile(lat, 50, 0);
  e.p95 = perfbench::tail_percentile(lat, 95, 10);
  e.cpu_ms_per_frame = perfbench::cpu_ms_per_frame(s1.cpu_s - s0.cpu_s, e.results);
  const std::int64_t host_jiffies = marks.back().total - marks.front().total;
  if (host_jiffies > 0) {
    e.steal_pct = 100.0 * static_cast<double>(marks.back().steal - marks.front().steal) /
                  static_cast<double>(host_jiffies);
  }

  // The postmortem over the timed window: Analyzer clamps to the trace's
  // bounds, so footprint and the Ideal-GC bound cover the window only.
  std::vector<stats::Trace> windowed = s.traces;
  for (auto& t : windowed) {
    t.t_begin = w.t0;
    t.t_end = w.t1;
  }
  const std::int64_t t_analyze = now_ns();
  std::vector<stats::Analysis> analyses;
  for (const auto& t : windowed) analyses.push_back(stats::Analyzer(t).run());
  e.analyze_ms = static_cast<double>(now_ns() - t_analyze) / 1e6;

  for (const auto& an : analyses) e.footprint_mb += an.res.footprint_mb_mean;
  if (analyses.size() == 1) {
    // Lineage is whole in one process: the paper's Ideal-GC bound and waste.
    e.igc_mb = analyses[0].res.igc_mb_mean;
    e.wasted_mem_pct = analyses[0].res.wasted_mem_pct;
    e.wasted_comp_pct = analyses[0].res.wasted_comp_pct;
  } else {
    std::vector<Ts> emitted;
    for (const auto& ev : perfbench::emits_in(*s.back, s.gui, Window{INT64_MIN, INT64_MAX})) {
      emitted.push_back(ev.ts);
    }
    std::vector<const stats::Trace*> all;
    for (const auto& t : s.traces) all.push_back(&t);
    const perfbench::TsMatchedUsage u = perfbench::ts_matched_usage(all, emitted, w);
    e.igc_mb = u.igc_mb;
    e.wasted_mem_pct = u.wasted_mem_pct;
    e.wasted_comp_pct = u.wasted_comp_pct;
  }

  // Failures: link-down put drops, get-link recoveries (each follows a
  // failed remote get), and results out of timestamp order.
  const std::int64_t emits = static_cast<std::int64_t>(perfbench::emits_in(*s.back, s.gui, w).size());
  std::int64_t remote_puts = 0;
  std::int64_t get_recoveries = 0;
  if (s.traces.size() > 1) {
    // Puts into remote channels: items made by tasks whose output lives in
    // another fragment (the front's digitizer).
    for (const auto& rec : s.front->items) {
      if (rec.producer == s.digitizer && w.contains(rec.t_alloc)) ++remote_puts;
    }
    for (const auto& t : s.traces) {
      get_recoveries += perfbench::count(t, EventType::kReconnect, perfbench::kAnyNode, w);
    }
  }
  const auto gets_ok = static_cast<std::int64_t>(prom_delta(s0, s1, "aru_net_rpc_latency_ns_count"));
  const std::int64_t drops = s1.proxy_drops - s0.proxy_drops;
  const std::int64_t disorder = perfbench::non_increasing_results(*s.back, s.gui, w);
  e.attempted = emits + remote_puts + gets_ok + get_recoveries;
  e.failed = drops + get_recoveries + disorder;
  return e;
}

void end_to_end_metrics(Report& r, const EndToEnd& e) {
  const auto m = [&](const std::string& name, double v, const std::string& unit) {
    r.metrics.raw(name, Json().num("value", v).str("unit", unit).done());
  };
  m("fps", e.fps, "1/s");
  m("latency_p50_ms", e.p50.value, "ms");
  m("latency_p95_ms", e.p95.value, "ms");
  m("cpu_ms_per_frame", e.cpu_ms_per_frame, "ms");
  m("footprint_mb", e.footprint_mb, "MB");
  m("footprint_over_igc", e.igc_mb > 0 ? e.footprint_mb / e.igc_mb : 0.0, "ratio");
  m("rss_peak_mb", e.rss_peak_mb, "MB");
  m("setup_s", perfbench::median(r.setup_s), "s");
}

std::string info_json(const EndToEnd& e, const Report& r) {
  return Json()
      .num("results", static_cast<double>(e.results))
      .num("latency_samples", static_cast<double>(e.p95.samples))
      .num("p95_percentile", e.p95.q)
      .num("p95_beyond", static_cast<double>(e.p95.beyond))
      .num("igc_mb", e.igc_mb)
      .num("failed_frac",
           e.attempted > 0 ? static_cast<double>(e.failed) / static_cast<double>(e.attempted)
                           : 0.0)
      .num("setup_samples", static_cast<double>(r.setup_s.size()))
      .num("host_steal_pct", e.steal_pct)
      .num("quiet_share", e.quiet_share)
      .done();
}

/// Per-layer metrics and the accounting tables of a traced deployment.
void per_layer(const Args& a, Deployment& d, Scored& s, const Snapshot& s0,
               const Snapshot& s1, const EndToEnd& e, double untraced_cpu_ms,
               Report& r) {
  const Window w{.t0 = s0.t, .t1 = s1.t};
  const double frames = std::max<double>(1.0, static_cast<double>(e.results));
  const auto m = [&](const std::string& name, double v, const std::string& unit) {
    r.metrics.raw(name, Json().num("value", v).str("unit", unit).done());
  };
  const auto total = [&](EventType type) {
    std::int64_t sum = 0;
    for (const auto& t : s.traces) sum += perfbench::sum_a(t, type, perfbench::kAnyNode, w);
    return static_cast<double>(sum);
  };
  const auto events = [&](EventType type) {
    std::int64_t n = 0;
    for (const auto& t : s.traces) n += perfbench::count(t, type, perfbench::kAnyNode, w);
    return static_cast<double>(n);
  };

  // vision: per-stage spans (spec-built workloads) or per-thread on-CPU
  // time (paper-cfg2, whose bodies build_tracker owns).
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    const std::string& stage = kStages[i];
    NodeRef node = -1;
    const stats::Trace* t = trace_of_task(s, task_name(a, stage), &node);
    const double iters =
        t != nullptr ? static_cast<double>(perfbench::count(*t, EventType::kStp, node, w)) : 0.0;
    double cpu_ns = 0.0;
    double wall_ns = 0.0;
    double calls = 0.0;
    if (d.handles) {
      if (d.task_threads.size() == kStages.size()) {
        const pid_t tid = d.task_threads[i];
        cpu_ns = static_cast<double>(s1.oncpu.at(tid) - s0.oncpu.at(tid));
      }
      calls = iters;
    } else {
      const SpanTotals& b0 = s0.spans.at(stage);
      const SpanTotals& b1 = s1.spans.at(stage);
      cpu_ns = static_cast<double>(b1.cpu_ns - b0.cpu_ns);
      wall_ns = static_cast<double>(b1.wall_ns - b0.wall_ns);
      calls = static_cast<double>(b1.calls - b0.calls);
    }
    const double per = std::max(1.0, calls);
    m("vision." + stage + ".cpu_us_per_iter", cpu_ns / per / 1e3, "us");
    m("vision." + stage + ".iters", iters, "count");

    // Stage accounting: where each iteration's wall time went.
    const auto stage_ms = [&](EventType type) {
      return t != nullptr ? static_cast<double>(perfbench::sum_a(*t, type, node, w)) / 1e6 /
                                std::max(1.0, iters)
                          : 0.0;
    };
    const double period = iters > 0 ? w.seconds() * 1e3 / iters : 0.0;
    const double compute = stage_ms(EventType::kCompute);
    const double blocked = stage_ms(EventType::kBlocked);
    const double sleep = stage_ms(EventType::kSleep);
    const double other = stage_ms(EventType::kTransfer) + stage_ms(EventType::kOverhead);
    m("runtime." + stage + ".blocked_ms", blocked, "ms");
    r.stages.push_back(Json()
                           .str("stage", stage)
                           .num("iters", iters)
                           .num("period_ms", period)
                           .num("body_wall_ms", wall_ns > 0 ? wall_ns / calls / 1e6 : -1.0)
                           .num("cpu_ms", cpu_ns / per / 1e6)
                           .num("compute_ms", compute)
                           .num("blocked_ms", blocked)
                           .num("sleep_ms", sleep)
                           .num("transfer_overhead_ms", other)
                           .done());
  }

  // runtime: per-channel flow over the window, from the trace that hosts
  // each channel (a proxy of the same name records no puts).
  std::vector<stats::BufferUsage> buffers;
  for (const auto& t : s.traces) {
    stats::Trace windowed = t;
    std::erase_if(windowed.events, [&](const Event& ev) { return !w.contains(ev.t); });
    const stats::Breakdown b = stats::compute_breakdown(windowed, stats::Analyzer(t));
    buffers.insert(buffers.end(), b.buffers.begin(), b.buffers.end());
  }
  for (const std::string& ch : kChannels) {
    stats::BufferUsage best;
    for (const auto& b : buffers) {
      if (b.name == channel_name(a, ch) && b.puts > best.puts) best = b;
    }
    m("runtime." + ch + ".puts", static_cast<double>(best.puts), "count");
    m("runtime." + ch + ".skips", static_cast<double>(best.skips), "count");
    m("runtime." + ch + ".drops", static_cast<double>(best.drops), "count");
    m("runtime." + ch + ".wait_ms_mean", best.wait_ms_mean, "ms");
  }
  const double acquires = static_cast<double>(s1.pool_acquires - s0.pool_acquires);
  m("runtime.pool.hit_ratio",
    acquires > 0 ? static_cast<double>(s1.pool_hits - s0.pool_hits) / acquires : 0.0, "ratio");
  m("runtime.pool.misses", static_cast<double>(s1.pool_misses - s0.pool_misses), "count");
  m("runtime.items_per_frame", events(EventType::kAlloc) / frames, "count");

  // core (ARU) and gc
  m("core.source_summary_stp_ms",
    perfbench::settled_summary_stp_ms(*s.front, s.digitizer, w), "ms");
  m("core.pacing_sleep_ms_per_frame",
    static_cast<double>(perfbench::sum_a(*s.front, EventType::kSleep, s.digitizer, w)) / 1e6 /
        frames,
    "ms");
  m("core.wasted_mem_pct", e.wasted_mem_pct, "%");
  m("core.wasted_comp_pct", e.wasted_comp_pct, "%");
  m("gc.drops_per_frame", events(EventType::kDrop) / frames, "count");
  m("gc.elided_compute_ms", total(EventType::kElide) / 1e6 / frames, "ms");

  // cluster, stats
  double replicas = 0.0;
  for (const auto& t : s.traces) replicas += perfbench::replica_mb(t, w);
  m("cluster.transfer_ms_per_frame", total(EventType::kTransfer) / 1e6 / frames, "ms");
  m("cluster.replica_mb", replicas, "MB");
  double window_events = 0.0;
  for (const auto& t : s.traces) {
    for (const Event& ev : t.events) window_events += w.contains(ev.t) ? 1.0 : 0.0;
  }
  m("stats.events_per_frame", window_events / frames, "count");
  m("stats.analyze_ms", e.analyze_ms, "ms");

  // net
  m("net.tx_mb_per_frame", total(EventType::kNetTx) / kMb / frames, "MB");
  m("net.tx_frames_per_frame", events(EventType::kNetTx) / frames, "count");
  Buckets b0, b1;
  for (const std::string& text : s0.prom) add_rpc_buckets(text, b0);
  for (const std::string& text : s1.prom) add_rpc_buckets(text, b1);
  m("net.rpc_latency_us_p50", bucket_percentile_us(b0, b1, 0.50), "us");
  m("net.rpc_latency_us_p99", bucket_percentile_us(b0, b1, 0.99), "us");
  const auto mean_of = [&](const std::string& hist) {
    const double n = prom_delta(s0, s1, hist + "_count");
    return n > 0 ? prom_delta(s0, s1, hist + "_sum") / n : 0.0;
  };
  m("net.put_batch_frames_mean", mean_of("aru_net_put_batch_frames"), "count");
  m("net.acks_coalesced_mean", mean_of("aru_net_ack_coalesced_puts"), "count");
  m("net.reconnects", prom_delta(s0, s1, "aru_net_reconnects_total"), "count");

  // control
  m("control.build_fragment_ms", d.build_fragment_ms, "ms");
  m("control.server_start_ms", d.server_start_ms, "ms");

  m("bench.trace_overhead_ratio",
    untraced_cpu_ms > 0 ? e.cpu_ms_per_frame / untraced_cpu_ms : 0.0, "ratio");

  // Critical path of every result in the window.
  const perfbench::PathTraces pt{
      .front = s.front,
      .mid = s.traces.size() > 2 ? &s.traces[1] : nullptr,
      .back = s.back};
  const std::vector<perfbench::PathSplit> splits = perfbench::critical_path(pt, w);
  const auto layer = [&](const char* name, double perfbench::PathSplit::*field) {
    std::vector<double> v;
    double sum = 0.0;
    for (const auto& sp : splits) {
      v.push_back(sp.*field);
      sum += sp.*field;
    }
    r.path.push_back(Json()
                         .str("layer", name)
                         .num("median_ms", perfbench::median(v))
                         .num("mean_ms", splits.empty() ? 0.0 : sum / static_cast<double>(splits.size()))
                         .num("samples", static_cast<double>(splits.size()))
                         .done());
  };
  layer("vision", &perfbench::PathSplit::vision);
  layer("runtime", &perfbench::PathSplit::runtime);
  layer("cluster", &perfbench::PathSplit::cluster);
  layer("net", &perfbench::PathSplit::net);
  layer("total", &perfbench::PathSplit::total);
}

/// Runs one timed deployment; returns the scored window and its traces.
struct Timed {
  std::unique_ptr<Deployment> d;
  Scored s;
  Snapshot s0, s1;
  std::vector<perfbench::HostMark> marks;
  EndToEnd e;
};

Timed timed_run(const Args& a, Spans* spans, double seconds_timed, Report& r) {
  Timed t;
  // Return heap the earlier deployments' traces freed, so the window's RSS
  // is this deployment's, not what the allocator kept from the last one.
  malloc_trim(0);
  t.d = deploy_retrying(a, spans);
  if (!t.d->sink_rt().wait_emits(1, seconds(60))) {
    r.checks.push_back({.name = "first_result", .ok = false, .detail = "no result in 60 s"});
  }
  const double started = static_cast<double>(now_ns() - t.d->t_construct) / 1e9;
  sleep_s(std::max(0.0, kWarmupS - started));
  // The peak is taken over the timed window: teardown merges every trace
  // into one, a transient the pipeline's own memory use does not include.
  reset_rss_peak();
  t.s0 = snapshot(*t.d, spans);
  // Host CPU marks once a second, to find the window's quieter seconds.
  t.marks.push_back(host_mark(t.s0.t));
  const int seconds_whole = std::max(1, static_cast<int>(std::lround(seconds_timed)));
  for (int i = 1; i <= seconds_whole; ++i) {
    const std::int64_t due =
        t.s0.t + static_cast<std::int64_t>(seconds_timed * 1e9 * i / seconds_whole);
    sleep_s(static_cast<double>(due - now_ns()) / 1e9);
    if (i < seconds_whole) t.marks.push_back(host_mark(now_ns()));
  }
  t.s1 = snapshot(*t.d, spans);
  t.marks.push_back(host_mark(t.s1.t));
  const double rss_mb = rss_peak_mb();
  t.s = collect(*t.d, r);
  t.e = score(t.s, t.s0, t.s1, t.marks);
  t.e.rss_peak_mb = rss_mb;
  if (t.d->handles) {
    for (int k = 0; k < 2; ++k) {
      const auto& st = *t.d->handles->detect_stats[k];
      r.checks.push_back(perfbench::check_detection(
          "model" + std::to_string(k + 1), st.found.load(), st.missed.load(),
          st.mean_error_px(), kMinFoundShare, kMaxMeanErrorPx));
    }
  }
  return t;
}

std::string checks_json(const std::vector<Check>& checks) {
  std::vector<std::string> items;
  for (const Check& c : checks) {
    items.push_back(Json().str("name", c.name).num("ok", c.ok ? 1 : 0).str("detail", c.detail).done());
  }
  return json_list(items);
}

int run(const Args& a) {
  const std::int64_t t_begin = now_ns();
  const double cpu_begin = process_cpu_s();
  Report r;

  for (int i = 0; i < kSetups; ++i) {
    auto d = deploy_retrying(a, nullptr);
    if (!d->sink_rt().wait_emits(1, seconds(60))) {
      r.checks.push_back({.name = "first_result", .ok = false, .detail = "no result in 60 s"});
    }
    collect(*d, r);
  }

  // A traced run splits its time between an untraced and a traced
  // deployment, so it lasts as long as an untraced one.
  const double seconds_timed = a.trace ? a.seconds / 2 : a.seconds;
  Timed plain = timed_run(a, nullptr, seconds_timed, r);
  r.attempted = plain.e.attempted;
  r.failed = plain.e.failed;
  if (!a.trace) {
    r.checks.push_back({.name = "results_for_p95",
                        .ok = plain.e.p95.samples >= kMinResults,
                        .detail = std::to_string(plain.e.p95.samples) +
                                  " latency samples (need " + std::to_string(kMinResults) + ")"});
    end_to_end_metrics(r, plain.e);
    r.info = info_json(plain.e, r);
  } else {
    Spans spans;
    for (const std::string& stage : kStages) spans[stage];
    Timed traced = timed_run(a, &spans, seconds_timed, r);
    per_layer(a, *traced.d, traced.s, traced.s0, traced.s1, traced.e,
              plain.e.cpu_ms_per_frame, r);
    r.info = Json()
                 .num("traced_latency_p50_ms", traced.e.p50.value)
                 .num("traced_cpu_ms_per_frame", traced.e.cpu_ms_per_frame)
                 .num("untraced_cpu_ms_per_frame", plain.e.cpu_ms_per_frame)
                 .num("host_steal_pct", traced.e.steal_pct)
                 .done();
  }

  const std::string host =
      Json()
          .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
          .str("compiler", __VERSION__)
          .str("build_type", PERFBENCH_BUILD_TYPE)
          .num("seed", static_cast<double>(a.seed))
          .num("wall_s", static_cast<double>(now_ns() - t_begin) / 1e9)
          .num("cpu_s", process_cpu_s() - cpu_begin)
          .done();
  std::printf("%s\n", Json()
                          .str("workload", a.workload)
                          .num("trace", a.trace ? 1 : 0)
                          .raw("host", host)
                          .raw("checks", checks_json(r.checks))
                          .num("attempted", static_cast<double>(r.attempted))
                          .num("failed", static_cast<double>(r.failed))
                          .raw("metrics", r.metrics.done())
                          .raw("info", r.info)
                          .raw("stages", json_list(r.stages))
                          .raw("critical_path", json_list(r.path))
                          .done()
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else {
      std::fprintf(stderr, "tracker_bench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tracker_bench: %s\n", e.what());
    return 1;
  }
}
