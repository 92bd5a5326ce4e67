/// \file kernels.hpp
/// \brief Real pixel kernels for the tracker stages (frame differencing,
///        color histogram, histogram-guided target detection).
///
/// These perform genuine image processing — strided to keep real CPU cost
/// small relative to the emulated stage costs (DESIGN.md §2) — so the
/// pipeline carries real data dependencies end to end and detection
/// accuracy can be validated against the generator's ground truth.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/static_annotations.hpp"
#include "vision/frame.hpp"
#include "vision/records.hpp"

namespace stampede::vision {

/// Luma of the previously differenced frame, one byte per pixel on the
/// caller's stride grid (the background stage's only state). Sized for a
/// full frame; only grid positions are read and written, so one plane must
/// be used with one stride.
struct LumaPlane {
  std::vector<std::uint8_t> luma = std::vector<std::uint8_t>(kMaskBytes);
  bool valid = false;  ///< false until a frame has been stored
};

/// Motion mask: |luma(cur) − prev| > threshold → 255, else 0, for every
/// `stride`-th pixel of every `stride`-th row; then stores luma(cur) into
/// `prev` for the next call. Without a stored frame (`prev.valid` false)
/// the mask is all zero on the grid. Returns the number of moving pixels.
/// Throws std::invalid_argument on stride <= 0 or an undersized buffer.
ARU_HOT_PATH int frame_difference(ConstFrameView cur, LumaPlane& prev,
                                  std::span<std::byte> mask_out, int threshold = 24,
                                  int stride = kDefaultStride);

/// Builds the normalized 16^3-bin RGB histogram of `frame` and a
/// per-pixel backprojection byte map (bin frequency scaled to 0-255) into
/// the histogram payload. Throws std::invalid_argument on stride <= 0.
ARU_HOT_PATH void color_histogram(ConstFrameView frame,
                                  std::span<std::byte> histogram_payload,
                                  int stride = kDefaultStride);

/// Locates the target whose color matches `model`: scans `stride`-spaced
/// pixels where the motion mask is set (or all pixels when the mask is
/// empty/absent), weighting each by its color-model similarity, and
/// returns the weighted centroid. The histogram backprojection is used to
/// discount colors common in the whole frame. Throws
/// std::invalid_argument on stride <= 0.
ARU_HOT_PATH LocationRecord detect_target(ConstFrameView frame,
                                          std::span<const std::byte> mask,
                                          ConstHistogramView histogram, Rgb model,
                                          int model_index, int stride = kDefaultStride);

/// Mean-shift color tracking (the classic color-histogram tracker family
/// the CRL tracker belongs to): starting from `start_x/start_y`, iterates
/// the color-similarity-weighted centroid of a circular window until the
/// shift falls below half a stride or `max_iters` is reached.
struct MeanShiftResult {
  bool converged = false;
  int iterations = 0;
  double x = 0.0, y = 0.0;
  double mass = 0.0;  ///< total color-similarity mass in the final window
};
ARU_HOT_PATH MeanShiftResult mean_shift_track(ConstFrameView frame, Rgb model,
                                              double start_x, double start_y,
                                              double window_radius = 48.0,
                                              int max_iters = 12,
                                              int stride = kDefaultStride);

/// Connected-component labeling of a motion mask on the `stride` grid
/// (8-connectivity between grid neighbours). Returns components sorted by
/// pixel count, largest first.
struct Blob8 {
  int pixels = 0;          ///< grid pixels in the component
  double cx = 0.0, cy = 0.0;
  int min_x = 0, min_y = 0, max_x = 0, max_y = 0;  ///< bounding box
};
std::vector<Blob8> connected_components(std::span<const std::byte> mask,
                                        int stride = kDefaultStride,
                                        int min_pixels = 2);

}  // namespace stampede::vision
