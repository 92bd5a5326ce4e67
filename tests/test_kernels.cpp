#include "vision/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "vision/kernels_internal.hpp"

namespace stampede::vision {
namespace {

std::vector<std::byte> render(const SceneGenerator& gen, std::int64_t index,
                              int stride = kDefaultStride) {
  std::vector<std::byte> buf(kFrameBytes);
  gen.render(index, buf, stride);
  return buf;
}

/// Motion mask of `cur` against `prev`: stores prev's luma in a fresh
/// plane, then differences cur against it.
int difference(std::span<const std::byte> cur, std::span<const std::byte> prev,
               std::span<std::byte> mask, int threshold, int stride) {
  LumaPlane plane;
  frame_difference(ConstFrameView(prev), plane, mask, threshold, stride);
  return frame_difference(ConstFrameView(cur), plane, mask, threshold, stride);
}

/// Runs `body` once on the CPUID-chosen row loops and once forced onto
/// the baseline instances (the same code twice on a host without AVX2).
template <typename Fn>
void for_each_row_path(Fn&& body) {
  for (const auto path : {detail::RowPath::kByCpuid, detail::RowPath::kBaseline}) {
    SCOPED_TRACE(path == detail::RowPath::kBaseline ? "baseline rows" : "cpuid rows");
    detail::set_row_path(path);
    body();
  }
  detail::set_row_path(detail::RowPath::kByCpuid);
}

TEST(SceneGenerator, DeterministicPerSeedAndFrame) {
  SceneGenerator a(7), b(7);
  EXPECT_EQ(render(a, 3), render(b, 3));
  EXPECT_NE(render(a, 3), render(a, 4));
}

TEST(SceneGenerator, DifferentSeedsDifferentScenes) {
  SceneGenerator a(1), b(2);
  const Scene sa = a.scene_at(10), sb = b.scene_at(10);
  EXPECT_NE(sa.blobs[0].cx, sb.blobs[0].cx);
}

TEST(SceneGenerator, BlobsStayInsideFrame) {
  SceneGenerator gen(5);
  for (std::int64_t i = 0; i < 500; i += 7) {
    const Scene s = gen.scene_at(i);
    for (const Blob& blob : s.blobs) {
      EXPECT_GE(blob.cx, 0.0);
      EXPECT_LT(blob.cx, kWidth);
      EXPECT_GE(blob.cy, 0.0);
      EXPECT_LT(blob.cy, kHeight);
    }
  }
}

TEST(SceneGenerator, BlobPixelsHaveModelColor) {
  SceneGenerator gen(9);
  const auto buf = render(gen, 20, /*stride=*/1);
  const ConstFrameView frame(buf);
  const Scene s = gen.scene_at(20);
  const int cx = static_cast<int>(s.blobs[0].cx);
  const int cy = static_cast<int>(s.blobs[0].cy);
  const Rgb px = frame.get(cx, cy);
  const Rgb model = gen.model_color(0);
  EXPECT_EQ(px.r, model.r);
  EXPECT_EQ(px.g, model.g);
  EXPECT_EQ(px.b, model.b);
}

TEST(SceneGenerator, InvalidStrideThrows) {
  SceneGenerator gen(1);
  std::vector<std::byte> buf(kFrameBytes);
  EXPECT_THROW(gen.render(0, buf, 0), std::invalid_argument);
}

TEST(FrameView, BoundsChecked) {
  std::vector<std::byte> buf(kFrameBytes);
  FrameView f(buf);
  EXPECT_THROW(f.get(-1, 0), std::out_of_range);
  EXPECT_THROW(f.get(kWidth, 0), std::out_of_range);
  EXPECT_THROW(f.set(0, kHeight, Rgb{}), std::out_of_range);
  std::vector<std::byte> small_buf(10);
  EXPECT_THROW((void)FrameView(std::span<std::byte>(small_buf)), std::invalid_argument);
}

TEST(FrameView, RoundTripsPixels) {
  std::vector<std::byte> buf(kFrameBytes);
  FrameView f(buf);
  f.set(10, 20, Rgb{1, 2, 3});
  const Rgb c = f.get(10, 20);
  EXPECT_EQ(c.r, 1);
  EXPECT_EQ(c.g, 2);
  EXPECT_EQ(c.b, 3);
  EXPECT_EQ(f.luminance(10, 20), (1 * 299 + 2 * 587 + 3 * 114) / 1000);
}

TEST(FrameDifference, StaticSceneProducesEmptyMask) {
  SceneGenerator gen(3);
  const auto a = render(gen, 5, 4);
  std::vector<std::byte> mask(kMaskBytes);
  const int moving = difference(a, a, mask, /*threshold=*/24, /*stride=*/4);
  EXPECT_EQ(moving, 0);
}

TEST(FrameDifference, MovingBlobIsDetected) {
  SceneGenerator gen(3);
  const auto a = render(gen, 5, 4);
  const auto b = render(gen, 25, 4);  // blobs moved substantially
  std::vector<std::byte> mask(kMaskBytes);
  const int moving = difference(b, a, mask, 24, 4);
  EXPECT_GT(moving, 20);
}

TEST(FrameDifference, SmallMaskBufferThrows) {
  SceneGenerator gen(1);
  const auto a = render(gen, 0);
  std::vector<std::byte> tiny(16);
  LumaPlane plane;
  EXPECT_THROW(frame_difference(ConstFrameView(a), plane, tiny), std::invalid_argument);
  std::vector<std::byte> mask(kMaskBytes);
  LumaPlane short_plane;
  short_plane.luma.resize(16);
  EXPECT_THROW(frame_difference(ConstFrameView(a), short_plane, mask),
               std::invalid_argument);
}

TEST(KernelStride, NonPositiveStrideThrows) {
  SceneGenerator gen(1);
  const auto frame = render(gen, 0, 1);
  std::vector<std::byte> mask(kMaskBytes);
  std::vector<std::byte> hist_payload(kHistogramBytes);
  LumaPlane plane;
  for (const int stride : {0, -2}) {
    SCOPED_TRACE(stride);
    EXPECT_THROW(frame_difference(ConstFrameView(frame), plane, mask, 24, stride),
                 std::invalid_argument);
    EXPECT_THROW(color_histogram(ConstFrameView(frame), hist_payload, stride),
                 std::invalid_argument);
    EXPECT_THROW(detect_target(ConstFrameView(frame), mask, ConstHistogramView(hist_payload),
                               gen.model_color(0), 0, stride),
                 std::invalid_argument);
  }
}

TEST(ColorHistogram, BinsAreNormalized) {
  SceneGenerator gen(4);
  const auto frame = render(gen, 8, 4);
  std::vector<std::byte> payload(kHistogramBytes);
  color_histogram(ConstFrameView(frame), payload, 4);
  ConstHistogramView hist(payload);
  float sum = 0;
  for (const float b : hist.bins()) {
    ASSERT_GE(b, 0.0f);
    sum += b;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(ColorHistogram, BackgroundDominatesBins) {
  SceneGenerator gen(4);
  const auto frame = render(gen, 8, 4);
  std::vector<std::byte> payload(kHistogramBytes);
  color_histogram(ConstFrameView(frame), payload, 4);
  ConstHistogramView hist(payload);
  // Gray background (~96-127 per channel) lands in a handful of bins that
  // must hold most of the mass.
  float top = 0;
  for (const float b : hist.bins()) top = std::max(top, b);
  EXPECT_GT(top, 0.2f);
}

TEST(DetectTarget, FindsBlobNearGroundTruth) {
  SceneGenerator gen(11);
  const auto prev = render(gen, 30, 2);
  const auto cur = render(gen, 31, 2);
  std::vector<std::byte> mask(kMaskBytes);
  difference(cur, prev, mask, 24, 2);
  std::vector<std::byte> hist_payload(kHistogramBytes);
  color_histogram(ConstFrameView(cur), hist_payload, 2);

  for (int model = 0; model < 2; ++model) {
    const LocationRecord rec =
        detect_target(ConstFrameView(cur), mask, ConstHistogramView(hist_payload),
                      gen.model_color(model), model, 2);
    const Scene truth = gen.scene_at(31);
    ASSERT_TRUE(rec.found) << "model " << model;
    const double dx = rec.x - truth.blobs[model].cx;
    const double dy = rec.y - truth.blobs[model].cy;
    // Centroid within roughly one blob radius of ground truth. The motion
    // mask covers both old and new positions, so allow 2x radius.
    EXPECT_LT(std::sqrt(dx * dx + dy * dy), 2.5 * truth.blobs[model].radius)
        << "model " << model;
  }
}

TEST(MeanShift, ConvergesToBlobFromNearbyStart) {
  SceneGenerator gen(13);
  const auto frame = render(gen, 40, 2);
  const Scene truth = gen.scene_at(40);
  for (int model = 0; model < 2; ++model) {
    const double sx = truth.blobs[model].cx + 30;  // start off-center
    const double sy = truth.blobs[model].cy - 25;
    const MeanShiftResult r = mean_shift_track(ConstFrameView(frame),
                                               gen.model_color(model), sx, sy, 60.0, 15, 2);
    ASSERT_TRUE(r.converged) << "model " << model;
    const double err = std::hypot(r.x - truth.blobs[model].cx,
                                  r.y - truth.blobs[model].cy);
    EXPECT_LT(err, truth.blobs[model].radius) << "model " << model;
  }
}

TEST(MeanShift, TracksAcrossConsecutiveFrames) {
  // Classic tracker loop: seed each frame's search at the previous result.
  SceneGenerator gen(13);
  const Scene s0 = gen.scene_at(0);
  double x = s0.blobs[0].cx, y = s0.blobs[0].cy;
  for (std::int64_t ts = 1; ts <= 20; ++ts) {
    const auto frame = render(gen, ts, 2);
    const MeanShiftResult r =
        mean_shift_track(ConstFrameView(frame), gen.model_color(0), x, y, 60.0, 15, 2);
    ASSERT_TRUE(r.converged) << "frame " << ts;
    x = r.x;
    y = r.y;
    const Scene truth = gen.scene_at(ts);
    EXPECT_LT(std::hypot(x - truth.blobs[0].cx, y - truth.blobs[0].cy),
              truth.blobs[0].radius)
        << "frame " << ts;
  }
}

TEST(MeanShift, ReportsLostWhenNoMassInWindow) {
  std::vector<std::byte> blank(kFrameBytes);  // black frame: no color mass
  const MeanShiftResult r =
      mean_shift_track(ConstFrameView(blank), Rgb{220, 40, 40}, 100, 100, 40.0, 8, 4);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.mass, 0.0);
}

TEST(MeanShift, BadParametersThrow) {
  std::vector<std::byte> frame(kFrameBytes);
  EXPECT_THROW(mean_shift_track(ConstFrameView(frame), Rgb{}, 0, 0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(mean_shift_track(ConstFrameView(frame), Rgb{}, 0, 0, 10.0, 0),
               std::invalid_argument);
}

TEST(ConnectedComponents, FindsTwoSeparatedBlobs) {
  std::vector<std::byte> mask(kMaskBytes);
  auto set_box = [&](int x0, int y0, int x1, int y1) {
    for (int y = y0; y <= y1; y += 4) {
      for (int x = x0; x <= x1; x += 4) {
        mask[static_cast<std::size_t>(y) * kWidth + static_cast<std::size_t>(x)] =
            std::byte{255};
      }
    }
  };
  set_box(40, 40, 80, 80);     // big blob
  set_box(400, 200, 420, 220);  // small blob

  const auto blobs = connected_components(mask, 4, 2);
  ASSERT_EQ(blobs.size(), 2u);
  EXPECT_GT(blobs[0].pixels, blobs[1].pixels);  // sorted largest first
  EXPECT_NEAR(blobs[0].cx, 60.0, 4.0);
  EXPECT_NEAR(blobs[0].cy, 60.0, 4.0);
  EXPECT_EQ(blobs[0].min_x, 40);
  EXPECT_EQ(blobs[0].max_x, 80);
  EXPECT_NEAR(blobs[1].cx, 410.0, 4.0);
}

TEST(ConnectedComponents, DiagonalPixelsConnect) {
  std::vector<std::byte> mask(kMaskBytes);
  auto set = [&](int x, int y) {
    mask[static_cast<std::size_t>(y) * kWidth + static_cast<std::size_t>(x)] = std::byte{255};
  };
  set(0, 0);
  set(4, 4);  // diagonal neighbour on the stride-4 grid
  const auto blobs = connected_components(mask, 4, 1);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0].pixels, 2);
}

TEST(ConnectedComponents, MinPixelsFiltersSpeckle) {
  std::vector<std::byte> mask(kMaskBytes);
  mask[0] = std::byte{255};  // lone pixel
  EXPECT_TRUE(connected_components(mask, 4, 2).empty());
  EXPECT_EQ(connected_components(mask, 4, 1).size(), 1u);
}

TEST(ConnectedComponents, EmptyMaskAndErrors) {
  std::vector<std::byte> mask(kMaskBytes);
  EXPECT_TRUE(connected_components(mask, 4).empty());
  std::vector<std::byte> tiny(8);
  EXPECT_THROW(connected_components(tiny, 4), std::invalid_argument);
  EXPECT_THROW(connected_components(mask, 0), std::invalid_argument);
}

TEST(ConnectedComponents, MovingBlobsYieldComponentsOnRealMask) {
  SceneGenerator gen(3);
  const auto a = render(gen, 5, 4);
  const auto b = render(gen, 25, 4);
  std::vector<std::byte> mask(kMaskBytes);
  difference(b, a, mask, 24, 4);
  const auto blobs = connected_components(mask, 4, 3);
  EXPECT_GE(blobs.size(), 1u);  // at least the moved blobs stand out
}

// -- golden tests: LUT kernels vs direct std::exp references ------------------
//
// detect_target and mean_shift_track replaced the per-pixel std::exp with
// per-channel weight tables, and color_histogram/frame_difference moved to
// fused row-pointer passes. These references re-state the original
// per-pixel formulations; the production kernels must agree within 1e-3
// (the table form only reorders floating-point operations).

double ref_weight(Rgb c, Rgb model) {
  const double dr = static_cast<double>(c.r) - model.r;
  const double dg = static_cast<double>(c.g) - model.g;
  const double db = static_cast<double>(c.b) - model.b;
  return std::exp(-(dr * dr + dg * dg + db * db) / (2.0 * 40.0 * 40.0));
}

LocationRecord ref_detect_target(ConstFrameView frame, std::span<const std::byte> mask,
                                 ConstHistogramView histogram, Rgb model, int model_index,
                                 int stride) {
  const bool use_mask = mask.size() >= kMaskBytes;
  const auto bins = histogram.bins();
  double wsum = 0.0, xsum = 0.0, ysum = 0.0;
  int considered = 0;
  for (int y = 0; y < frame.height(); y += stride) {
    for (int x = 0; x < frame.width(); x += stride) {
      if (use_mask &&
          static_cast<unsigned char>(mask[static_cast<std::size_t>(y) * kWidth +
                                          static_cast<std::size_t>(x)]) == 0) {
        continue;
      }
      ++considered;
      const Rgb c = frame.get(x, y);
      double w = ref_weight(c, model);
      const float freq = bins[static_cast<std::size_t>(hist_bin(c))];
      w *= 1.0 / (1.0 + 50.0 * static_cast<double>(freq));
      if (w < 1e-4) continue;
      wsum += w;
      xsum += w * x;
      ysum += w * y;
    }
  }
  LocationRecord rec;
  rec.model = model_index;
  if (wsum > 0.05 && considered > 0) {
    rec.found = 1;
    rec.x = xsum / wsum;
    rec.y = ysum / wsum;
    rec.confidence = std::min(1.0, wsum / static_cast<double>(considered));
  }
  return rec;
}

MeanShiftResult ref_mean_shift(ConstFrameView frame, Rgb model, double start_x,
                               double start_y, double window_radius, int max_iters,
                               int stride) {
  MeanShiftResult result;
  result.x = start_x;
  result.y = start_y;
  for (int iter = 0; iter < max_iters; ++iter) {
    ++result.iterations;
    const int x_lo = std::max(0, static_cast<int>(result.x - window_radius));
    const int x_hi = std::min(frame.width() - 1, static_cast<int>(result.x + window_radius));
    const int y_lo = std::max(0, static_cast<int>(result.y - window_radius));
    const int y_hi = std::min(frame.height() - 1, static_cast<int>(result.y + window_radius));
    double wsum = 0, xsum = 0, ysum = 0;
    for (int y = (y_lo / stride) * stride; y <= y_hi; y += stride) {
      if (y < y_lo) continue;
      for (int x = (x_lo / stride) * stride; x <= x_hi; x += stride) {
        if (x < x_lo) continue;
        const double ddx = x - result.x;
        const double ddy = y - result.y;
        if (ddx * ddx + ddy * ddy > window_radius * window_radius) continue;
        const double w = ref_weight(frame.get(x, y), model);
        if (w < 1e-4) continue;
        wsum += w;
        xsum += w * x;
        ysum += w * y;
      }
    }
    if (wsum < 1e-6) return result;
    const double nx = xsum / wsum;
    const double ny = ysum / wsum;
    const double shift = std::hypot(nx - result.x, ny - result.y);
    result.x = nx;
    result.y = ny;
    result.mass = wsum;
    if (shift < static_cast<double>(stride) / 2.0) {
      result.converged = true;
      break;
    }
  }
  return result;
}

void ref_color_histogram(ConstFrameView frame, std::span<std::byte> histogram_payload,
                         int stride) {
  HistogramView hist(histogram_payload);
  auto bins = hist.bins();
  std::fill(bins.begin(), bins.end(), 0.0f);
  int samples = 0;
  for (int y = 0; y < frame.height(); y += stride) {
    for (int x = 0; x < frame.width(); x += stride) {
      bins[static_cast<std::size_t>(hist_bin(frame.get(x, y)))] += 1.0f;
      ++samples;
    }
  }
  if (samples > 0) {
    for (float& b : bins) b /= static_cast<float>(samples);
  }
  auto bp = hist.backprojection();
  for (int y = 0; y < frame.height(); y += stride) {
    for (int x = 0; x < frame.width(); x += stride) {
      const float f = bins[static_cast<std::size_t>(hist_bin(frame.get(x, y)))];
      bp[static_cast<std::size_t>(y) * kWidth + static_cast<std::size_t>(x)] =
          std::byte{static_cast<unsigned char>(std::min(255.0f, f * 2550.0f))};
    }
  }
}

TEST(KernelGolden, DetectTargetMatchesExpReference) {
  SceneGenerator gen(42);
  const auto prev = render(gen, 30, 1);
  const auto cur = render(gen, 31, 1);
  std::vector<std::byte> mask(kMaskBytes);
  difference(cur, prev, mask, 24, 1);
  std::vector<std::byte> hist_payload(kHistogramBytes);
  color_histogram(ConstFrameView(cur), hist_payload, 1);
  const ConstHistogramView hist(hist_payload);
  const std::span<const std::byte> no_mask;

  for (int model = 0; model < 2; ++model) {
    // Stride 1 masked (the word-scan path), stride 3 masked (per-pixel
    // masked path), and stride 1 unmasked.
    for (const int stride : {1, 3}) {
      const LocationRecord got = detect_target(ConstFrameView(cur), mask, hist,
                                               gen.model_color(model), model, stride);
      const LocationRecord want = ref_detect_target(ConstFrameView(cur), mask, hist,
                                                    gen.model_color(model), model, stride);
      SCOPED_TRACE(::testing::Message() << "model=" << model << " stride=" << stride);
      ASSERT_EQ(want.found, got.found);
      EXPECT_NEAR(want.x, got.x, 1e-3);
      EXPECT_NEAR(want.y, got.y, 1e-3);
      EXPECT_NEAR(want.confidence, got.confidence, 1e-3);
    }
    const LocationRecord got = detect_target(ConstFrameView(cur), no_mask, hist,
                                             gen.model_color(model), model, 1);
    const LocationRecord want = ref_detect_target(ConstFrameView(cur), no_mask, hist,
                                                  gen.model_color(model), model, 1);
    SCOPED_TRACE(::testing::Message() << "model=" << model << " unmasked");
    ASSERT_EQ(want.found, got.found);
    EXPECT_NEAR(want.x, got.x, 1e-3);
    EXPECT_NEAR(want.y, got.y, 1e-3);
    EXPECT_NEAR(want.confidence, got.confidence, 1e-3);
  }
}

TEST(KernelGolden, MeanShiftMatchesExpReference) {
  SceneGenerator gen(42);
  const auto frame = render(gen, 40, 1);
  const Scene truth = gen.scene_at(40);
  for (int model = 0; model < 2; ++model) {
    for (const int stride : {1, 2}) {
      const double sx = truth.blobs[model].cx + 22;
      const double sy = truth.blobs[model].cy - 17;
      const MeanShiftResult got = mean_shift_track(ConstFrameView(frame),
                                                   gen.model_color(model), sx, sy, 60.0, 15,
                                                   stride);
      const MeanShiftResult want = ref_mean_shift(ConstFrameView(frame),
                                                  gen.model_color(model), sx, sy, 60.0, 15,
                                                  stride);
      SCOPED_TRACE(::testing::Message() << "model=" << model << " stride=" << stride);
      ASSERT_EQ(want.converged, got.converged);
      ASSERT_EQ(want.iterations, got.iterations);
      EXPECT_NEAR(want.x, got.x, 1e-3);
      EXPECT_NEAR(want.y, got.y, 1e-3);
      EXPECT_NEAR(want.mass, got.mass, 1e-3 * std::max(1.0, want.mass));
    }
  }
}

TEST(KernelGolden, ColorHistogramMatchesTwoPassReference) {
  SceneGenerator gen(42);
  const auto frame = render(gen, 12, 1);
  for_each_row_path([&] {
    for (const int stride : {1, 2, 3, 8}) {
      std::vector<std::byte> got_payload(kHistogramBytes);
      std::vector<std::byte> want_payload(kHistogramBytes);
      color_histogram(ConstFrameView(frame), got_payload, stride);
      ref_color_histogram(ConstFrameView(frame), want_payload, stride);
      // The fused pass defers normalization but computes the same exact
      // counts, so the payload must match byte for byte.
      EXPECT_EQ(got_payload, want_payload) << "stride=" << stride;
    }
  });
}

TEST(KernelGolden, FrameDifferenceMatchesPerPixelReference) {
  SceneGenerator gen(42);
  const auto a = render(gen, 5, 1);
  const auto b = render(gen, 9, 1);
  for_each_row_path([&] {
    for (const int stride : {1, 2, 3, 8}) {
      SCOPED_TRACE(::testing::Message() << "stride=" << stride);
      // Reference: the original two-frame per-pixel luminance formulation;
      // a missing previous frame means an all-zero mask on the grid.
      const auto reference = [&](const ConstFrameView* prev, const ConstFrameView& cur,
                                 std::vector<std::byte>& want) {
        int want_moving = 0;
        for (int y = 0; y < cur.height(); y += stride) {
          for (int x = 0; x < cur.width(); x += stride) {
            const bool on =
                prev != nullptr && std::abs(cur.luminance(x, y) - prev->luminance(x, y)) > 24;
            want[static_cast<std::size_t>(y) * kWidth + static_cast<std::size_t>(x)] =
                std::byte{static_cast<unsigned char>(on ? 255 : 0)};
            want_moving += on ? 1 : 0;
          }
        }
        return want_moving;
      };
      const ConstFrameView prev(a), cur(b);
      // Same poison in both, so a write between grid points shows up.
      std::vector<std::byte> got(kMaskBytes, std::byte{0x5A});
      std::vector<std::byte> want(kMaskBytes, std::byte{0x5A});
      LumaPlane plane;
      // No previous frame: the plane is seeded from `a`.
      EXPECT_EQ(frame_difference(prev, plane, got, 24, stride),
                reference(nullptr, prev, want));
      EXPECT_EQ(got, want);
      for (int y = 0; y < kHeight; y += stride) {
        for (int x = 0; x < kWidth; x += stride) {
          ASSERT_EQ(plane.luma[static_cast<std::size_t>(y) * kWidth +
                               static_cast<std::size_t>(x)],
                    prev.luminance(x, y));
        }
      }
      EXPECT_EQ(frame_difference(cur, plane, got, 24, stride), reference(&prev, cur, want));
      EXPECT_EQ(got, want);
    }
  });
}

/// The parent implementation of SceneGenerator::render: two disc tests per
/// grid pixel, later blob wins. The chord renderer must match it exactly.
void ref_render(const SceneGenerator& gen, std::uint64_t seed, std::int64_t index,
                std::span<std::byte> data, int stride) {
  FrameView frame(data);
  const Scene scene = gen.scene_at(index);
  Xoshiro256 rng(seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(index + 1)));
  for (int y = 0; y < kHeight; y += stride) {
    for (int x = 0; x < kWidth; x += stride) {
      const auto noise = static_cast<std::uint8_t>(96 + (rng.next() & 31));
      Rgb px{noise, noise, noise};
      for (const Blob& b : scene.blobs) {
        const double dx = x - b.cx;
        const double dy = y - b.cy;
        if (dx * dx + dy * dy <= b.radius * b.radius) px = b.color;
      }
      frame.set(x, y, px);
    }
  }
}

TEST(KernelGolden, RenderMatchesPerPixelReference) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const SceneGenerator gen(seed);
    for (const int stride : {1, 2, 3, 8}) {
      for (const std::int64_t index : {0LL, 17LL, 61LL, 250LL}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " stride=" << stride << " index=" << index);
        // Same poison in both, so bytes off the grid must match too.
        std::vector<std::byte> got(kFrameBytes, std::byte{0xA5});
        std::vector<std::byte> want(kFrameBytes, std::byte{0xA5});
        gen.render(index, got, stride);
        ref_render(gen, seed, index, want, stride);
        ASSERT_EQ(got, want);
      }
    }
  }
}

TEST(KernelDispatch, BothRowPathsAgreeByteForByte) {
  // Full width, and a width whose row length is not a multiple of any
  // vector width, so the vector loops' tails run too.
  for (const int width : {kWidth, kWidth - 3}) {
    SceneGenerator gen(17);
    const auto a = render(gen, 40, 1);
    const auto b = render(gen, 44, 1);
    const ConstFrameView prev(a, width), cur(b, width);
    struct Output {
      std::vector<std::byte> mask = std::vector<std::byte>(kMaskBytes);
      std::vector<std::byte> hist = std::vector<std::byte>(kHistogramBytes);
      LumaPlane plane;
      int moving = 0;
    };
    const auto run = [&](detail::RowPath path) {
      detail::set_row_path(path);
      Output out;
      frame_difference(prev, out.plane, out.mask, 24, 1);
      out.moving = frame_difference(cur, out.plane, out.mask, 24, 1);
      color_histogram(cur, out.hist, 1);
      detail::set_row_path(detail::RowPath::kByCpuid);
      return out;
    };
    const Output native = run(detail::RowPath::kByCpuid);
    const Output baseline = run(detail::RowPath::kBaseline);
    SCOPED_TRACE(::testing::Message() << "width=" << width << " avx2=" << detail::avx2_rows());
    EXPECT_GT(native.moving, 0);
    EXPECT_EQ(native.moving, baseline.moving);
    EXPECT_EQ(native.mask, baseline.mask);
    EXPECT_EQ(native.plane.luma, baseline.plane.luma);
    EXPECT_EQ(native.hist, baseline.hist);
  }
}

TEST(FrameView, RowPointerMatchesGet) {
  SceneGenerator gen(6);
  const auto buf = render(gen, 3, 1);
  const ConstFrameView frame(buf);
  for (const int y : {0, 17, kHeight - 1}) {
    const std::uint8_t* row = frame.row(y);
    for (const int x : {0, 1, 333, kWidth - 1}) {
      const Rgb c = frame.get(x, y);
      EXPECT_EQ(row[3 * x + 0], c.r);
      EXPECT_EQ(row[3 * x + 1], c.g);
      EXPECT_EQ(row[3 * x + 2], c.b);
    }
    EXPECT_EQ(frame.row_span(y).size(), static_cast<std::size_t>(kWidth) * 3);
  }
  EXPECT_THROW(frame.row(-1), std::out_of_range);
  EXPECT_THROW(frame.row(kHeight), std::out_of_range);
}

TEST(DetectTarget, EmptyMaskMeansNothingConsidered) {
  SceneGenerator gen(11);
  const auto cur = render(gen, 31, 2);
  std::vector<std::byte> mask(kMaskBytes);  // all zero
  std::vector<std::byte> hist_payload(kHistogramBytes);
  color_histogram(ConstFrameView(cur), hist_payload, 2);
  const LocationRecord rec = detect_target(ConstFrameView(cur), mask,
                                           ConstHistogramView(hist_payload),
                                           gen.model_color(0), 0, 2);
  EXPECT_FALSE(rec.found);
}

}  // namespace
}  // namespace stampede::vision
