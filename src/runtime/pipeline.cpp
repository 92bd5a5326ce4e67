#include "runtime/pipeline.hpp"

#include <algorithm>

namespace stampede {

PipelineParams PipelineParams::from_options(const Options& opts) {
  PipelineParams p;
  p.aru = aru::parse_mode(opts.get_string("aru", aru::to_string(p.aru)));
  p.seed = static_cast<std::uint64_t>(opts.get_int("seed", static_cast<std::int64_t>(p.seed)));
  p.scale = opts.get_double("scale", p.scale);
  p.stride = static_cast<int>(opts.get_int("stride", p.stride));
  return p;
}

const PipelineSpec::Task* PipelineSpec::find_task(const std::string& task) const {
  const auto it = std::ranges::find(tasks, task, &Task::name);
  return it == tasks.end() ? nullptr : &*it;
}

bool PipelineSpec::has_channel(const std::string& channel) const {
  return std::ranges::find(channels, channel) != channels.end();
}

}  // namespace stampede
