#include "control/pipelines.hpp"

#include <array>

#include "vision/stereo.hpp"
#include "vision/tracker.hpp"

namespace stampede::control {

namespace {

// ---------------------------------------------------------------------------
// "relay": source -> stream -> sink (cheap smoke/test pipeline)
// ---------------------------------------------------------------------------

PipelineSpec make_relay_spec() {
  PipelineSpec spec;
  spec.name = "relay";
  spec.channels = {"stream"};
  spec.tasks = {
      {.name = "source", .inputs = {}, .outputs = {"stream"}},
      {.name = "sink", .inputs = {"stream"}, .outputs = {}},
  };
  spec.make_body = [](const std::string& task, const PipelineParams& p,
                      const std::shared_ptr<void>&) -> TaskBody {
    // Source at 1 ms, sink at 6 ms (x scale): with ARU on, summary-STP
    // feedback must pace the source onto the sink's period.
    if (task == "source") {
      return [cost = from_millis(1.0 * p.scale)](TaskContext& ctx) {
        static thread_local Timestamp ts = 0;
        ctx.compute(cost);
        ctx.put(0, ctx.make_item(ts++, 16 * 1024, {}));
        return TaskStatus::kContinue;
      };
    }
    if (task == "sink") {
      return [cost = from_millis(6.0 * p.scale)](TaskContext& ctx) {
        auto item = ctx.get(0);
        if (!item) return TaskStatus::kDone;
        ctx.compute(cost);
        ctx.emit(*item);
        return TaskStatus::kContinue;
      };
    }
    return {};
  };
  return spec;
}

// ---------------------------------------------------------------------------
// "stereo": the §1 timestamp-correspondence scenario
// ---------------------------------------------------------------------------

/// The examples/stereo_pipeline.cpp graph as a deployable spec: two camera
/// tasks render the same scene from a baseline, the matcher pairs the
/// latest left frame with the right frame of the *corresponding timestamp*
/// (get_at, falling back to get_nearest within the paper's footnote-1
/// tolerance), and depth estimates flow to a sink. Note for manifests: the
/// matcher random-accesses both frame channels, so it must be co-located
/// with them — a RemoteChannel proxy only speaks latest/summary, not
/// get_at.
PipelineSpec make_stereo_spec() {
  PipelineSpec spec;
  spec.name = "stereo";
  spec.channels = {"left", "right", "depths"};
  spec.tasks = {
      {.name = "camera-left", .inputs = {}, .outputs = {"left"}},
      {.name = "camera-right", .inputs = {}, .outputs = {"right"}},
      // Port order matters: the matcher reads the latest left on input 0
      // and random-accesses the right on input 1.
      {.name = "stereo-matcher", .inputs = {"left", "right"}, .outputs = {"depths"}},
      {.name = "depth-sink", .inputs = {"depths"}, .outputs = {}},
  };
  spec.make_state = [](const PipelineParams& p) -> std::shared_ptr<void> {
    // The shared seed keeps both cameras (and the matcher's ground truth)
    // rendering the identical scene in every process of the deployment.
    return std::make_shared<vision::StereoRig>(p.seed);
  };
  spec.make_body = [](const std::string& task, const PipelineParams& p,
                      const std::shared_ptr<void>& state) -> TaskBody {
    const auto rig = std::static_pointer_cast<vision::StereoRig>(state);
    const auto camera = [&](bool left) -> TaskBody {
      auto next_ts = std::make_shared<Timestamp>(0);
      return [rig, left, next_ts, cost = from_millis(4.0 * p.scale)](TaskContext& ctx) {
        const Timestamp ts = (*next_ts)++;
        auto frame = ctx.make_item(ts, vision::kFrameBytes, {});
        const Nanos t0 = ctx.now();
        if (left) {
          rig->render_left(ts, frame->mutable_data());
        } else {
          rig->render_right(ts, frame->mutable_data());
        }
        ctx.account_compute(ctx.now() - t0);
        ctx.compute(cost);
        ctx.put(0, frame);
        return TaskStatus::kContinue;
      };
    };
    if (task == "camera-left") return camera(true);
    if (task == "camera-right") return camera(false);
    if (task == "stereo-matcher") {
      return [rig, cost = from_millis(16.0 * p.scale)](TaskContext& ctx) {
        auto left = ctx.get(0);  // latest left frame
        if (!left) return TaskStatus::kDone;
        auto right = ctx.get_at(1, left->ts());
        if (!right) right = ctx.get_nearest(1, left->ts(), /*tolerance=*/1);
        if (!right) return TaskStatus::kContinue;  // not digitized yet: skip
        const Nanos t0 = ctx.now();
        const vision::DisparityEstimate est = vision::estimate_disparity(
            vision::ConstFrameView(left->data()), vision::ConstFrameView(right->data()),
            rig->scene().model_color(0));
        ctx.account_compute(ctx.now() - t0);
        ctx.compute(cost);
        (void)est;  // correspondence quality is asserted by the example/tests
        auto depth = ctx.make_item(left->ts(), 64, {left->id(), right->id()});
        ctx.put(0, depth);
        return TaskStatus::kContinue;
      };
    }
    if (task == "depth-sink") {
      return [](TaskContext& ctx) {
        auto in = ctx.get(0);
        if (!in) return TaskStatus::kDone;
        ctx.emit(*in);
        return TaskStatus::kContinue;
      };
    }
    return {};
  };
  return spec;
}

const std::array<const PipelineSpec*, 3>& registry() {
  static const PipelineSpec relay = make_relay_spec();
  static const PipelineSpec stereo = make_stereo_spec();
  static const std::array<const PipelineSpec*, 3> specs = {&vision::tracker_spec(), &relay,
                                                           &stereo};
  return specs;
}

}  // namespace

const PipelineSpec* find_pipeline(const std::string& name) {
  for (const PipelineSpec* spec : registry()) {
    if (spec->name == name) return spec;
  }
  return nullptr;
}

}  // namespace stampede::control
