/// \file gesture_window.cpp
/// \brief Sliding-window analysis — the paper's §1 motivating example of
///        a "gesture recognition module [that] may need to analyze a
///        sliding window over a video stream".
///
/// Pipeline: Digitizer -> frames -> MotionMask -> masks -> GestureSpotter.
/// The spotter uses the space-time-memory window access mode
/// (get_window) to fetch the newest W motion masks each iteration and
/// classifies the window by its motion-energy profile. ARU feedback works
/// unchanged through windowed consumers: the digitizer paces itself to
/// the spotter's sustainable period.
///
/// Run:   gesture_window [aru=min|off] [seconds=6] [window=5]
#include <cstdio>

#include "runtime/runtime.hpp"
#include "stats/postmortem.hpp"
#include "util/options.hpp"
#include "vision/kernels.hpp"
#include "vision/stages.hpp"

using namespace stampede;
using namespace stampede::vision;

namespace {

/// Gesture spotter: motion energy across a window of masks.
TaskBody make_spotter(std::size_t window, std::shared_ptr<std::int64_t> gestures) {
  return [window, gestures](TaskContext& ctx) {
    const auto masks = ctx.get_window(0, window);
    if (masks.empty()) return TaskStatus::kDone;

    // Motion energy per mask: fraction of set pixels (strided scan).
    double energy = 0.0;
    for (const auto& mask : masks) {
      const auto data = mask->data();
      int set = 0, scanned = 0;
      for (std::size_t i = 0; i < data.size(); i += 64) {
        set += static_cast<unsigned char>(data[i]) != 0 ? 1 : 0;
        ++scanned;
      }
      energy += scanned ? static_cast<double>(set) / scanned : 0.0;
    }
    energy /= static_cast<double>(masks.size());

    ctx.compute(millis(20));  // classification cost
    if (masks.size() == window && energy > 0.0005) {
      ++*gestures;
      ctx.emit(*masks.back());
    }
    return TaskStatus::kContinue;
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Options cli = Options::parse(argc, argv);
  const aru::Mode mode = aru::parse_mode(cli.get_string("aru", "min"));
  const auto run_seconds = cli.get_int("seconds", 6);
  const auto window = static_cast<std::size_t>(cli.get_int("window", 5));

  RuntimeConfig cfg;

  cfg.aru.mode = mode;

  Runtime rt(std::move(cfg));
  auto gen = std::make_shared<SceneGenerator>(11);
  auto gestures = std::make_shared<std::int64_t>(0);
  StageCosts costs;  // digitizer 5 ms, background 12 ms

  Channel& frames = rt.add_channel({.name = "frames"});
  Channel& masks = rt.add_channel({.name = "masks"});
  TaskContext& dig = rt.add_task(
      {.name = "digitizer", .body = make_digitizer(gen, costs, INT64_MAX)});
  TaskContext& motion = rt.add_task({.name = "motion", .body = make_background(costs)});
  TaskContext& spotter =
      rt.add_task({.name = "spotter", .body = make_spotter(window, gestures)});
  rt.connect(dig, frames);
  rt.connect(frames, motion);
  rt.connect(motion, masks);
  rt.connect(masks, spotter);

  std::printf("gesture spotter over a %zu-mask sliding window, ARU=%s, %llds\n\n", window,
              aru::to_string(mode).c_str(), static_cast<long long>(run_seconds));
  rt.start();
  rt.clock().sleep_for(seconds(run_seconds));
  rt.stop();

  const auto trace = rt.take_trace();
  const auto a = stats::Analyzer(trace).run();
  std::printf("windows classified as gesture : %lld\n", static_cast<long long>(*gestures));
  std::printf("digitizer paced period        : %.2f ms (spotter needs ~20 ms)\n",
              static_cast<double>(dig.feedback().summary().count()) / 1e6);
  std::printf("frames produced / wasted      : %lld / %lld (%.1f%% mem wasted)\n",
              static_cast<long long>(a.res.items_total),
              static_cast<long long>(a.res.items_wasted), a.res.wasted_mem_pct);
  std::printf("\nnote: windowed consumers hold the DGC frontier back by the window size,\n"
              "so the last %zu masks always stay resident — visible in the footprint.\n",
              window);
  (void)motion;
  (void)spotter;
  return 0;
}
