/// \file pipeline.hpp
/// \brief Structure of a deployable task graph, apart from its placement.
///
/// A `PipelineSpec` holds tasks, channels and the port order of every
/// edge, plus factories that build the task bodies in whichever process a
/// task lands in. Placement is separate: a manifest (control/manifest.hpp)
/// places a spec onto processes; `vision::build_tracker` places the
/// tracker spec onto the simulated cluster of the paper's two configs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "runtime/task.hpp"
#include "util/options.hpp"

namespace stampede {

/// Deployment-time knobs shared by every worker of one deployment. All
/// workers must parse identical values (the supervisor forwards one
/// option set to every spawn), so per-process RNG streams and stage
/// costs agree across the fleet.
struct PipelineParams {
  aru::Mode aru = aru::Mode::kMin;
  std::uint64_t seed = 42;
  /// Stage-cost multiplier (1.0 = the paper's costs).
  double scale = 1.0;
  /// Pixel-processing stride for the vision kernels.
  int stride = 8;

  static PipelineParams from_options(const Options& opts);
};

/// Structure of one deployable task graph.
struct PipelineSpec {
  struct Task {
    std::string name;
    /// Input channels in port order (get(0) reads inputs[0], ...).
    std::vector<std::string> inputs;
    /// Output channels in port order (put(0) writes outputs[0], ...).
    std::vector<std::string> outputs;
  };

  std::string name;
  std::vector<std::string> channels;
  std::vector<Task> tasks;

  /// Builds the per-process shared state (scene generators, detection
  /// accumulators) handed to every make_body call in this process;
  /// optional for stateless pipelines.
  std::function<std::shared_ptr<void>(const PipelineParams&)> make_state;

  /// Builds the body for `task` (a name from `tasks`).
  std::function<TaskBody(const std::string& task, const PipelineParams&,
                         const std::shared_ptr<void>& state)>
      make_body;

  const Task* find_task(const std::string& task) const;
  bool has_channel(const std::string& channel) const;
};

}  // namespace stampede
