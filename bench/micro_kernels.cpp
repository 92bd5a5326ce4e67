/// \file micro_kernels.cpp
/// \brief Micro-benchmarks of the vision pixel kernels on deterministic
///        scene frames, at the pipeline stride (8) and at full resolution
///        (stride 1) where per-pixel costs dominate.
///
/// Run via bench/run_bench.sh to emit BENCH_kernels.json at the repo
/// root — every PR appends to that perf trajectory.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "vision/kernels.hpp"
#include "vision/records.hpp"

namespace stampede::vision {
namespace {

/// Deterministic frames/mask/histogram shared by all kernel benches. The
/// scene is rendered at stride 1 so stride-1 kernel runs see real pixels
/// everywhere.
struct KernelFixture {
  SceneGenerator gen{42};
  std::vector<std::byte> prev = std::vector<std::byte>(kFrameBytes);
  std::vector<std::byte> cur = std::vector<std::byte>(kFrameBytes);
  std::vector<std::byte> mask = std::vector<std::byte>(kMaskBytes);
  std::vector<std::byte> hist = std::vector<std::byte>(kHistogramBytes);

  KernelFixture() {
    gen.render(30, prev, /*stride=*/1);
    gen.render(31, cur, /*stride=*/1);
    LumaPlane plane;
    frame_difference(ConstFrameView(prev), plane, mask, 24, 1);
    frame_difference(ConstFrameView(cur), plane, mask, 24, 1);
    color_histogram(ConstFrameView(cur), hist, 1);
  }
};

KernelFixture& fixture() {
  static KernelFixture f;
  return f;
}

/// The digitizer's kernel: one full scene render per iteration.
void BM_Render(benchmark::State& state) {
  KernelFixture& f = fixture();
  const int stride = static_cast<int>(state.range(0));
  std::vector<std::byte> frame(kFrameBytes);
  std::int64_t index = 0;
  for (auto _ : state) {
    f.gen.render(index++, frame, stride);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Render)->Arg(1)->Arg(8);

/// The background stage's kernel: each iteration differences one frame
/// against the luma plane holding the other, alternating, so every call
/// sees real motion and refreshes the plane as the stage does.
void BM_FrameDifference(benchmark::State& state) {
  KernelFixture& f = fixture();
  const int stride = static_cast<int>(state.range(0));
  std::vector<std::byte> mask(kMaskBytes);
  LumaPlane plane;
  frame_difference(ConstFrameView(f.prev), plane, mask, 24, stride);
  bool odd = false;
  for (auto _ : state) {
    const ConstFrameView frame(odd ? f.prev : f.cur);
    benchmark::DoNotOptimize(frame_difference(frame, plane, mask, 24, stride));
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
    odd = !odd;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameDifference)->Arg(1)->Arg(8);

void BM_ColorHistogram(benchmark::State& state) {
  KernelFixture& f = fixture();
  const int stride = static_cast<int>(state.range(0));
  std::vector<std::byte> payload(kHistogramBytes);
  for (auto _ : state) {
    color_histogram(ConstFrameView(f.cur), payload, stride);
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColorHistogram)->Arg(1)->Arg(8);

void BM_DetectTarget(benchmark::State& state) {
  KernelFixture& f = fixture();
  const int stride = static_cast<int>(state.range(0));
  const Rgb model = f.gen.model_color(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_target(ConstFrameView(f.cur), f.mask,
                                           ConstHistogramView(f.hist), model, 0, stride));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectTarget)->Arg(1)->Arg(8);

/// Unmasked variant: every pixel on the stride grid is weighted — the
/// worst case for the per-pixel similarity math.
void BM_DetectTargetNoMask(benchmark::State& state) {
  KernelFixture& f = fixture();
  const int stride = static_cast<int>(state.range(0));
  const Rgb model = f.gen.model_color(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_target(ConstFrameView(f.cur), {},
                                           ConstHistogramView(f.hist), model, 0, stride));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectTargetNoMask)->Arg(1)->Arg(8);

void BM_MeanShiftTrack(benchmark::State& state) {
  KernelFixture& f = fixture();
  const int stride = static_cast<int>(state.range(0));
  const Scene truth = f.gen.scene_at(31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mean_shift_track(ConstFrameView(f.cur), f.gen.model_color(0),
                                              truth.blobs[0].cx + 20, truth.blobs[0].cy - 15,
                                              60.0, 15, stride));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeanShiftTrack)->Arg(1)->Arg(8);

void BM_ConnectedComponents(benchmark::State& state) {
  KernelFixture& f = fixture();
  const int stride = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(connected_components(f.mask, stride, 2));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConnectedComponents)->Arg(1)->Arg(8);

}  // namespace
}  // namespace stampede::vision

BENCHMARK_MAIN();
