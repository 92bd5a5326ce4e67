/// \file stereo_pipeline.cpp
/// \brief Stereo pipeline with timestamp correspondence — the paper's §1
///        stereo scenario, exercising the channel's random-access mode.
///
/// Two camera tasks (left/right) digitize the same scene from a baseline;
/// the stereo matcher takes the latest left frame and fetches the right
/// frame with the *corresponding timestamp* via get_at. Depth estimates
/// flow through a Queue (exactly-once) to a sink. ARU paces both cameras
/// to the matcher's rate.
///
/// Run:   stereo_pipeline [aru=min|off] [seconds=5]
#include <cstdio>

#include "runtime/runtime.hpp"
#include "stats/postmortem.hpp"
#include "util/options.hpp"
#include "vision/stereo.hpp"

using namespace stampede;
using namespace stampede::vision;

namespace {

TaskBody make_camera(std::shared_ptr<StereoRig> rig, bool left) {
  auto next_ts = std::make_shared<Timestamp>(0);
  return [rig, left, next_ts](TaskContext& ctx) {
    const Timestamp ts = (*next_ts)++;
    auto frame = ctx.make_item(ts, kFrameBytes, {});
    const Nanos t0 = ctx.now();
    if (left) {
      rig->render_left(ts, frame->mutable_data());
    } else {
      rig->render_right(ts, frame->mutable_data());
    }
    ctx.account_compute(ctx.now() - t0);
    ctx.compute(millis(4));
    ctx.put(0, frame);
    return TaskStatus::kContinue;
  };
}

struct MatchStats {
  std::int64_t matched = 0;
  std::int64_t missing_right = 0;
  double disparity_err_sum = 0.0;
};

TaskBody make_matcher(std::shared_ptr<StereoRig> rig, std::shared_ptr<MatchStats> stats) {
  return [rig, stats](TaskContext& ctx) {
    auto left = ctx.get(0);  // latest left frame
    if (!left) return TaskStatus::kDone;

    // Correspondence: the right frame with the SAME timestamp (§1:
    // "images with corresponding timestamps from multiple cameras"),
    // falling back to a neighbour within the paper's footnote-1 tolerance
    // ("values close enough within a pre-defined threshold").
    auto right = ctx.get_at(1, left->ts());
    if (!right) right = ctx.get_nearest(1, left->ts(), /*tolerance=*/1);
    if (!right) {
      // Not digitized/still in flight or already collected: skip this ts.
      ++stats->missing_right;
      return TaskStatus::kContinue;
    }

    const Nanos t0 = ctx.now();
    const DisparityEstimate est =
        estimate_disparity(ConstFrameView(left->data()), ConstFrameView(right->data()),
                           rig->scene().model_color(0));
    ctx.account_compute(ctx.now() - t0);
    ctx.compute(millis(16));

    if (est.found) {
      ++stats->matched;
      stats->disparity_err_sum +=
          std::abs(est.disparity_px - static_cast<double>(rig->baseline_px()));
    }
    auto depth = ctx.make_item(left->ts(), 64, {left->id(), right->id()});
    ctx.put(0, depth);
    return TaskStatus::kContinue;
  };
}

TaskStatus sink_body(TaskContext& ctx) {
  auto in = ctx.get(0);
  if (!in) return TaskStatus::kDone;
  ctx.emit(*in);
  return TaskStatus::kContinue;
}

}  // namespace

int main(int argc, char** argv) {
  const Options cli = Options::parse(argc, argv);
  const aru::Mode mode = aru::parse_mode(cli.get_string("aru", "min"));
  const auto run_seconds = cli.get_int("seconds", 5);

  RuntimeConfig cfg;

  cfg.aru.mode = mode;

  Runtime rt(std::move(cfg));
  auto rig = std::make_shared<StereoRig>(21);
  auto stats = std::make_shared<MatchStats>();

  Channel& left_frames = rt.add_channel({.name = "left"});
  Channel& right_frames = rt.add_channel({.name = "right"});
  Queue& depths = rt.add_queue({.name = "depths"});

  TaskContext& cam_l =
      rt.add_task({.name = "camera-left", .body = make_camera(rig, true)});
  TaskContext& cam_r =
      rt.add_task({.name = "camera-right", .body = make_camera(rig, false)});
  TaskContext& matcher =
      rt.add_task({.name = "stereo-matcher", .body = make_matcher(rig, stats)});
  TaskContext& sink = rt.add_task({.name = "depth-sink", .body = sink_body});

  rt.connect(cam_l, left_frames);
  rt.connect(cam_r, right_frames);
  rt.connect(left_frames, matcher);   // input 0: latest left
  rt.connect(right_frames, matcher);  // input 1: get_at correspondence
  rt.connect(matcher, depths);
  rt.connect(depths, sink);

  std::printf("stereo rig baseline %d px; cameras 4ms, matcher 16ms; ARU=%s\n\n",
              rig->baseline_px(), aru::to_string(mode).c_str());
  rt.start();
  rt.clock().sleep_for(seconds(run_seconds));
  rt.stop();

  const auto trace = rt.take_trace();
  const auto a = stats::Analyzer(trace).run();
  const double mean_err =
      stats->matched > 0 ? stats->disparity_err_sum / static_cast<double>(stats->matched)
                         : 0.0;
  std::printf("matched pairs        : %lld (right frame missing for %lld left frames)\n",
              static_cast<long long>(stats->matched),
              static_cast<long long>(stats->missing_right));
  std::printf("mean |disparity err| : %.1f px (ground truth %d px)\n", mean_err,
              rig->baseline_px());
  std::printf("camera paced periods : left %.1f ms, right %.1f ms (matcher ~16 ms)\n",
              static_cast<double>(cam_l.feedback().summary().count()) / 1e6,
              static_cast<double>(cam_r.feedback().summary().count()) / 1e6);
  std::printf("depth records emitted: %lld; wasted memory %.1f%%\n",
              static_cast<long long>(a.perf.frames_emitted), a.res.wasted_mem_pct);
  (void)matcher;
  (void)sink;
  return 0;
}
