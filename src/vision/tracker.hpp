/// \file tracker.hpp
/// \brief The color-based people-tracker application (paper Fig. 5) —
///        its one graph declaration, its cluster placement, and the
///        experiment runner.
///
/// Pipeline:
///
///   Digitizer ──frames──┬─> Background ──masks──┬─> TargetDetect(model 1) ──loc1──┐
///                       ├─> Histogram ──hists──┬┴─> TargetDetect(model 2) ──loc2──┤
///                       └──────────(frames)────┘                                  └─> GUI
///
/// (The frames channel feeds Background, Histogram, and both detectors;
/// both detectors read masks, hists and frames; the GUI consumes both
/// location channels and emits every displayed result.)
///
/// tracker_spec() declares this graph once. build_tracker places it on the
/// simulated cluster: configuration 1 puts everything on one cluster node
/// (shared memory); configuration 2 distributes the five stages over five
/// nodes connected by a simulated Gigabit link, with channels on their
/// producers' nodes — mirroring the paper's two experimental
/// configurations. Manifests place the same spec onto real processes.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/pipeline.hpp"
#include "runtime/runtime.hpp"
#include "stats/postmortem.hpp"
#include "vision/stages.hpp"

namespace stampede::vision {

/// Calibrated default pressure model: ~120 µs of buffer-management work
/// per stored item on each put/get and ~40 µs of allocator pressure per
/// resident megabyte on each allocation.
PressureModel default_pressure();

/// Everything needed to run one tracker experiment.
struct TrackerOptions {
  aru::Mode aru = aru::Mode::kOff;
  /// Feedback-filter spec for summary-STP smoothing (ARU extension).
  std::string aru_filter = "passthrough";
  /// Fraction of the pacing gap closed per iteration (controller damping).
  double pace_gain = 1.0;
  /// Pace every thread, not just sources (paper paces sources only).
  bool throttle_non_source = false;
  /// User-defined compress operator (used when aru == kCustom), applied to
  /// every node of the pipeline — the paper's §3.3.2 extension point.
  aru::CompressFn custom_compress;
  gc::Kind gc = gc::Kind::kDeadTimestamp;
  /// 1 = single node (paper config 1), 2 = five nodes (paper config 2).
  int cluster_config = 1;
  /// Wall-clock run length.
  Nanos duration = seconds(10);
  std::uint64_t seed = 42;
  /// Stage-cost multiplier (1.0 = the paper's StageCosts).
  double scale = 1.0;
  CostMode cost_mode = CostMode::kSleep;
  /// Memory-pressure model (see PressureModel); defaults reproduce the
  /// paper's load-dependent slowdown of the No-ARU baseline.
  PressureModel pressure = default_pressure();
  /// Bounded frames channel (0 = unbounded): the classic backpressure
  /// baseline used by the ablation bench.
  std::size_t frame_capacity = 0;
  /// Kernel/render pixel stride (higher = less real CPU per frame).
  int stride = kDefaultStride;
  /// Preemption-burst injection (off by default; the filters ablation
  /// turns it on to generate the paper's heavy-tailed summary-STP noise).
  SchedulerNoise sched_noise;
  /// Fraction of the run discarded as warm-up for performance metrics.
  double warmup_fraction = 0.1;
};

/// The Fig. 5 tracker graph: tasks digitizer, background, histogram,
/// detect1, detect2 and gui over channels frames, masks, hists, loc1 and
/// loc2, in port order. Built once; registered with the control plane as
/// "tracker".
const PipelineSpec& tracker_spec();

/// Node ids of the constructed pipeline (for trace queries).
struct TrackerHandles {
  /// Live detection accuracy per model, shared with the detector stages.
  std::shared_ptr<DetectionStats> detect_stats[2];
  NodeId digitizer = kNoNode;
  NodeId background = kNoNode;
  NodeId histogram = kNoNode;
  NodeId detect1 = kNoNode;
  NodeId detect2 = kNoNode;
  NodeId gui = kNoNode;
  Channel* frames = nullptr;
  Channel* masks = nullptr;
  Channel* hists = nullptr;
  Channel* loc1 = nullptr;
  Channel* loc2 = nullptr;
};

/// Builds the RuntimeConfig implied by `opts` (clock defaults to the real
/// steady clock).
RuntimeConfig runtime_config(const TrackerOptions& opts);

/// Places tracker_spec() into `rt` on the cluster node of
/// `opts.cluster_config`, under the paper's names (C1:frames ... C5:loc2,
/// detect-m1, detect-m2). Call before rt.start().
TrackerHandles build_tracker(Runtime& rt, const TrackerOptions& opts);

/// Complete experiment result.
struct TrackerResult {
  stats::Trace trace;
  stats::Analysis analysis;
};

/// Runs one tracker experiment to completion and analyzes the trace.
TrackerResult run_tracker(const TrackerOptions& opts);

/// Display label like "ARU-min cfg1" for report tables.
std::string label(const TrackerOptions& opts);

}  // namespace stampede::vision
