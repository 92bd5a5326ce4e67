/// \file stages.hpp
/// \brief Task-body factories for the five tracker stages (paper Fig. 5).
///
/// Each factory returns a `TaskBody` closure holding its stage state
/// (previous frame's luma, scene generator, ...). Stage compute cost is the
/// measured real kernel time plus emulated padding up to a jittered
/// per-iteration target — reproducing the paper's data-dependent,
/// OS-noise-perturbed execution times (§3.1) at a controllable scale.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "runtime/task.hpp"
#include "vision/frame.hpp"

namespace stampede::vision {

/// Per-stage compute-cost targets (before jitter). Defaults give the
/// paper-shaped rate differential: a fast digitizer, medium filter
/// stages, slow target detection.
struct StageCosts {
  Nanos digitizer = millis(5);
  Nanos background = millis(12);
  Nanos histogram = millis(15);
  Nanos detect0 = millis(28);
  Nanos detect1 = millis(33);
  Nanos gui = millis(6);
  /// Multiplicative uniform cost jitter: each iteration's target is
  /// base × (1 ± jitter). This is the summary-STP noise source the paper
  /// discusses in §3.3.2.
  double jitter = 0.12;

  /// Returns a copy with every cost multiplied by `f` (time scaling).
  StageCosts scaled(double f) const;
};

/// Applies the jitter model to a base cost.
Nanos jittered(Nanos base, double jitter, Xoshiro256& rng);

/// Digitizer: renders synthetic frames with consecutive timestamps into
/// output 0 and stops after `max_frames`.
TaskBody make_digitizer(std::shared_ptr<SceneGenerator> gen, StageCosts costs,
                        std::int64_t max_frames, int stride = kDefaultStride);

/// Background / motion mask: input 0 = frames, output 0 = masks. Its only
/// state is the previous frame's luma on the stride grid (a LumaPlane).
TaskBody make_background(StageCosts costs, int stride = kDefaultStride);

/// Color histogram: input 0 = frames, output 0 = histogram models.
TaskBody make_histogram(StageCosts costs, int stride = kDefaultStride);

/// Live detection-quality counters shared with the detector stages.
struct DetectionStats {
  std::atomic<std::int64_t> found{0};
  std::atomic<std::int64_t> missed{0};
  /// Σ centroid error in millipixels (divide by found for the mean).
  std::atomic<std::int64_t> err_millipx{0};

  double mean_error_px() const {
    const auto n = found.load();
    return n > 0 ? static_cast<double>(err_millipx.load()) / 1000.0 / static_cast<double>(n)
                 : 0.0;
  }
};

/// Target detection for color model `model` (0 or 1):
/// inputs 0 = masks, 1 = histogram models, 2 = frames; output 0 =
/// location records. `stats` (optional) accumulates accuracy vs ground
/// truth.
TaskBody make_target_detection(std::shared_ptr<SceneGenerator> gen, StageCosts costs,
                               int model, int stride = kDefaultStride,
                               std::shared_ptr<DetectionStats> stats = nullptr);

/// GUI sink: inputs 0 = model-1 locations, 1 = model-2 locations; emits
/// every displayed result.
TaskBody make_gui(StageCosts costs);

}  // namespace stampede::vision
