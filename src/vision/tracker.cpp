#include "vision/tracker.hpp"

#include <map>
#include <stdexcept>
#include <string_view>

namespace stampede::vision {

PressureModel default_pressure() {
  // Calibrated so the unthrottled (No-ARU) baseline suffers the
  // load-dependent slowdown the paper measured on its real testbed
  // (channel scan/GC work plus allocator pressure), while the ARU modes —
  // whose channels stay nearly empty — are barely affected.
  return PressureModel{
      .per_item_scan = micros(300),
      .per_mb_alloc = micros(100),
      .compute_dilation_per_mb = 0.08,
  };
}

RuntimeConfig runtime_config(const TrackerOptions& opts) {
  RuntimeConfig cfg;
  cfg.aru = aru::Config{.mode = opts.aru,
                        .filter = opts.aru_filter,
                        .throttle_non_source = opts.throttle_non_source,
                        .pace_gain = opts.pace_gain};
  cfg.gc = opts.gc;
  cfg.cost_mode = opts.cost_mode;
  cfg.pressure = opts.pressure;
  cfg.sched_noise = opts.sched_noise;
  cfg.seed = opts.seed;
  if (opts.cluster_config == 2) {
    cfg.topology = cluster::Topology::uniform(5, cluster::Topology::gigabit_link());
  } else {
    cfg.topology = cluster::Topology::single_node();
  }
  return cfg;
}

namespace {

/// Per-process shared state of the tracker stages. Every process builds
/// the full struct (it is cheap) and its local stages pick what they
/// need; the shared seed keeps the digitizer's scene and the detectors'
/// ground-truth scene identical across processes.
struct TrackerState {
  explicit TrackerState(std::uint64_t seed) : gen(std::make_shared<SceneGenerator>(seed)) {}
  std::shared_ptr<SceneGenerator> gen;
  std::shared_ptr<DetectionStats> stats[2] = {std::make_shared<DetectionStats>(),
                                              std::make_shared<DetectionStats>()};
};

PipelineSpec make_tracker_spec() {
  PipelineSpec spec;
  spec.name = "tracker";
  spec.channels = {"frames", "masks", "hists", "loc1", "loc2"};
  spec.tasks = {
      {.name = "digitizer", .inputs = {}, .outputs = {"frames"}},
      {.name = "background", .inputs = {"frames"}, .outputs = {"masks"}},
      {.name = "histogram", .inputs = {"frames"}, .outputs = {"hists"}},
      // Port order matters: make_target_detection reads masks on input 0,
      // hists on 1, frames on 2.
      {.name = "detect1", .inputs = {"masks", "hists", "frames"}, .outputs = {"loc1"}},
      {.name = "detect2", .inputs = {"masks", "hists", "frames"}, .outputs = {"loc2"}},
      {.name = "gui", .inputs = {"loc1", "loc2"}, .outputs = {}},
  };
  spec.make_state = [](const PipelineParams& p) -> std::shared_ptr<void> {
    return std::make_shared<TrackerState>(p.seed);
  };
  spec.make_body = [](const std::string& task, const PipelineParams& p,
                      const std::shared_ptr<void>& state) -> TaskBody {
    const auto& ts = *std::static_pointer_cast<TrackerState>(state);
    const StageCosts costs = StageCosts{}.scaled(p.scale);
    if (task == "digitizer") return make_digitizer(ts.gen, costs, INT64_MAX, p.stride);
    if (task == "background") return make_background(costs, p.stride);
    if (task == "histogram") return make_histogram(costs, p.stride);
    if (task == "detect1" || task == "detect2") {
      const int m = task == "detect1" ? 0 : 1;
      return make_target_detection(ts.gen, costs, m, p.stride, ts.stats[m]);
    }
    if (task == "gui") return make_gui(costs);
    return {};
  };
  return spec;
}

/// Paper name, config-2 cluster node and handle of each tracker_spec()
/// channel and task. Config 2 puts the five stages on five nodes (the two
/// detector threads belong to the single target-detection stage) and each
/// channel on its producer's node.
struct Placement {
  std::string_view spec_name;
  const char* name;
  int cfg2_node;
  Channel* TrackerHandles::*channel = nullptr;
  NodeId TrackerHandles::*task = nullptr;
};

constexpr Placement kPlacements[] = {
    {"frames", "C1:frames", 0, &TrackerHandles::frames},
    {"masks", "C2:masks", 1, &TrackerHandles::masks},
    {"hists", "C3:hists", 2, &TrackerHandles::hists},
    {"loc1", "C4:loc1", 3, &TrackerHandles::loc1},
    {"loc2", "C5:loc2", 3, &TrackerHandles::loc2},
    {"digitizer", "digitizer", 0, nullptr, &TrackerHandles::digitizer},
    {"background", "background", 1, nullptr, &TrackerHandles::background},
    {"histogram", "histogram", 2, nullptr, &TrackerHandles::histogram},
    {"detect1", "detect-m1", 3, nullptr, &TrackerHandles::detect1},
    {"detect2", "detect-m2", 3, nullptr, &TrackerHandles::detect2},
    {"gui", "gui", 4, nullptr, &TrackerHandles::gui},
};

const Placement& placement_of(const std::string& spec_name) {
  for (const Placement& p : kPlacements) {
    if (p.spec_name == spec_name) return p;
  }
  throw std::logic_error("build_tracker: no placement for '" + spec_name + "'");
}

}  // namespace

const PipelineSpec& tracker_spec() {
  static const PipelineSpec spec = make_tracker_spec();
  return spec;
}

TrackerHandles build_tracker(Runtime& rt, const TrackerOptions& opts) {
  const PipelineSpec& spec = tracker_spec();
  const PipelineParams params{
      .aru = opts.aru, .seed = opts.seed, .scale = opts.scale, .stride = opts.stride};
  const std::shared_ptr<void> state = spec.make_state(params);
  const auto& ts = *std::static_pointer_cast<TrackerState>(state);
  TrackerHandles h{.detect_stats = {ts.stats[0], ts.stats[1]}};
  const bool cfg2 = opts.cluster_config == 2;

  std::map<std::string, Channel*> channels;
  for (const std::string& name : spec.channels) {
    const Placement& p = placement_of(name);
    Channel& ch = rt.add_channel({.name = p.name,
                                  .cluster_node = cfg2 ? p.cfg2_node : 0,
                                  .capacity = name == "frames" ? opts.frame_capacity : 0,
                                  .custom_compress = opts.custom_compress});
    channels[name] = &ch;
    h.*p.channel = &ch;
  }
  for (const PipelineSpec::Task& t : spec.tasks) {
    const Placement& p = placement_of(t.name);
    TaskContext& task = rt.add_task({.name = p.name,
                                     .cluster_node = cfg2 ? p.cfg2_node : 0,
                                     .body = spec.make_body(t.name, params, state),
                                     .custom_compress = opts.custom_compress});
    h.*p.task = task.id();
    for (const std::string& out : t.outputs) rt.connect(task, *channels.at(out));
    for (const std::string& in : t.inputs) rt.connect(*channels.at(in), task);
  }
  return h;
}

TrackerResult run_tracker(const TrackerOptions& opts) {
  Runtime rt(runtime_config(opts));
  build_tracker(rt, opts);
  rt.start();
  rt.clock().sleep_for(opts.duration);
  rt.stop();

  TrackerResult result;
  result.trace = rt.take_trace();
  const stats::Analyzer analyzer(result.trace,
                                 {.warmup_fraction = opts.warmup_fraction});
  result.analysis = analyzer.run();
  return result;
}

std::string label(const TrackerOptions& opts) {
  std::string name = opts.aru == aru::Mode::kOff ? "No ARU" : ("ARU-" + aru::to_string(opts.aru));
  name += " cfg";
  name += std::to_string(opts.cluster_config);
  return name;
}

}  // namespace stampede::vision
