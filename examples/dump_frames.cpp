/// \file dump_frames.cpp
/// \brief Visual inspection of the synthetic tracker workload: renders a
///        few frames, their motion masks, and detection overlays to
///        NetPBM files.
///
/// Run:   dump_frames [dir=/tmp] [seed=42] [frames=4] [stride=2]
#include <cstdio>
#include <vector>

#include "util/options.hpp"
#include "vision/image_io.hpp"
#include "vision/kernels.hpp"

using namespace stampede;
using namespace stampede::vision;

int main(int argc, char** argv) {
  const Options cli = Options::parse(argc, argv);
  const std::string dir = cli.get_string("dir", "/tmp");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const auto n = cli.get_int("frames", 4);
  const int stride = static_cast<int>(cli.get_int("stride", 2));

  SceneGenerator gen(seed);
  std::vector<std::byte> prev(kFrameBytes), cur(kFrameBytes), mask(kMaskBytes);
  std::vector<std::byte> hist_payload(kHistogramBytes);

  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t ts = i * 10;  // spread out so motion is visible
    gen.render(ts - 1, prev, stride);
    gen.render(ts, cur, stride);

    // Store the previous frame's luma, then difference against it.
    LumaPlane prev_luma;
    frame_difference(ConstFrameView(prev), prev_luma, mask, 24, stride);
    frame_difference(ConstFrameView(cur), prev_luma, mask, 24, stride);
    color_histogram(ConstFrameView(cur), hist_payload, stride);

    // Detect both models and overlay results.
    std::vector<std::byte> annotated = cur;
    for (int model = 0; model < 2; ++model) {
      LocationRecord rec =
          detect_target(ConstFrameView(cur), mask, ConstHistogramView(hist_payload),
                        gen.model_color(model), model, stride);
      const Scene truth = gen.scene_at(ts);
      rec.truth_x = truth.blobs[model].cx;
      rec.truth_y = truth.blobs[model].cy;
      overlay_detection(FrameView(annotated), rec);
      std::printf("frame %lld model %d: %s at (%.0f, %.0f), truth (%.0f, %.0f)\n",
                  static_cast<long long>(ts), model, rec.found ? "found" : "missed",
                  rec.x, rec.y, rec.truth_x, rec.truth_y);
    }

    const std::string base = dir + "/tracker_" + std::to_string(ts);
    write_ppm(base + "_frame.ppm", ConstFrameView(cur));
    write_pgm(base + "_mask.pgm", mask);
    write_ppm(base + "_detect.ppm", ConstFrameView(annotated));
    std::printf("wrote %s_{frame.ppm, mask.pgm, detect.ppm}\n", base.c_str());
  }
  return 0;
}
