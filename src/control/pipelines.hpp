/// \file pipelines.hpp
/// \brief Registry of the pipelines the control plane can deploy.
///
/// A `PipelineSpec` (runtime/pipeline.hpp) is the structure of a task
/// graph; manifests (manifest.hpp) only place it onto named nodes.
///
/// Registered specs:
///   "tracker"  the Fig. 5 color tracker, vision::tracker_spec()
///   "relay"    a minimal source -> stream -> sink pipe for tests and
///              smoke runs
///   "stereo"   the §1 stereo correspondence scenario (camera-left,
///              camera-right, stereo-matcher, depth-sink over
///              left/right/depths; the matcher must be co-located with
///              the frame channels it random-accesses via get_at)
#pragma once

#include <string>

#include "runtime/pipeline.hpp"

namespace stampede::control {

using stampede::PipelineParams;
using stampede::PipelineSpec;

/// Looks up a registered pipeline; nullptr if unknown.
const PipelineSpec* find_pipeline(const std::string& name);

}  // namespace stampede::control
