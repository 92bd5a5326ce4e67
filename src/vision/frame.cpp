#include "vision/frame.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stampede::vision {

namespace {

std::size_t pixel_offset(int x, int y, int width) {
  return (static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
          static_cast<std::size_t>(x)) *
         3;
}

void check_bounds(int x, int y, int width, int height) {
  if (x < 0 || x >= width || y < 0 || y >= height) {
    throw std::out_of_range("FrameView: pixel out of bounds");
  }
}

void check_row(int y, int height) {
  if (y < 0 || y >= height) {
    throw std::out_of_range("FrameView: row out of bounds");
  }
}

}  // namespace

FrameView::FrameView(std::span<std::byte> data, int width, int height)
    : data_(data), width_(width), height_(height) {
  if (data.size() < static_cast<std::size_t>(width) * static_cast<std::size_t>(height) * 3) {
    throw std::invalid_argument("FrameView: buffer too small");
  }
}

Rgb FrameView::get(int x, int y) const {
  check_bounds(x, y, width_, height_);
  const std::size_t off = pixel_offset(x, y, width_);
  return Rgb{static_cast<std::uint8_t>(data_[off]), static_cast<std::uint8_t>(data_[off + 1]),
             static_cast<std::uint8_t>(data_[off + 2])};
}

void FrameView::set(int x, int y, Rgb c) {
  check_bounds(x, y, width_, height_);
  const std::size_t off = pixel_offset(x, y, width_);
  data_[off] = std::byte{c.r};
  data_[off + 1] = std::byte{c.g};
  data_[off + 2] = std::byte{c.b};
}

int FrameView::luminance(int x, int y) const {
  const Rgb c = get(x, y);
  return (static_cast<int>(c.r) * 299 + static_cast<int>(c.g) * 587 +
          static_cast<int>(c.b) * 114) /
         1000;
}

std::uint8_t* FrameView::row(int y) {
  check_row(y, height_);
  return reinterpret_cast<std::uint8_t*>(data_.data()) + pixel_offset(0, y, width_);
}

const std::uint8_t* FrameView::row(int y) const {
  check_row(y, height_);
  return reinterpret_cast<const std::uint8_t*>(data_.data()) + pixel_offset(0, y, width_);
}

std::span<std::byte> FrameView::row_span(int y) {
  check_row(y, height_);
  return data_.subspan(pixel_offset(0, y, width_), static_cast<std::size_t>(width_) * 3);
}

ConstFrameView::ConstFrameView(std::span<const std::byte> data, int width, int height)
    : data_(data), width_(width), height_(height) {
  if (data.size() < static_cast<std::size_t>(width) * static_cast<std::size_t>(height) * 3) {
    throw std::invalid_argument("ConstFrameView: buffer too small");
  }
}

Rgb ConstFrameView::get(int x, int y) const {
  check_bounds(x, y, width_, height_);
  const std::size_t off = pixel_offset(x, y, width_);
  return Rgb{static_cast<std::uint8_t>(data_[off]), static_cast<std::uint8_t>(data_[off + 1]),
             static_cast<std::uint8_t>(data_[off + 2])};
}

int ConstFrameView::luminance(int x, int y) const {
  const Rgb c = get(x, y);
  return (static_cast<int>(c.r) * 299 + static_cast<int>(c.g) * 587 +
          static_cast<int>(c.b) * 114) /
         1000;
}

const std::uint8_t* ConstFrameView::row(int y) const {
  check_row(y, height_);
  return reinterpret_cast<const std::uint8_t*>(data_.data()) + pixel_offset(0, y, width_);
}

std::span<const std::byte> ConstFrameView::row_span(int y) const {
  check_row(y, height_);
  return data_.subspan(pixel_offset(0, y, width_), static_cast<std::size_t>(width_) * 3);
}

SceneGenerator::SceneGenerator(std::uint64_t seed) : seed_(seed) {
  // Two well-separated, saturated colors so the two target-detection
  // models track distinct "people".
  colors_[0] = Rgb{220, 40, 40};   // red shirt
  colors_[1] = Rgb{40, 60, 220};   // blue shirt
}

Rgb SceneGenerator::model_color(int model) const {
  if (model < 0 || model > 1) throw std::out_of_range("SceneGenerator: model index");
  return colors_[model];
}

Scene SceneGenerator::scene_at(std::int64_t index) const {
  // Smooth Lissajous-style paths; phase offsets derived from the seed so
  // different seeds give different (still deterministic) trajectories.
  SplitMix64 sm(seed_);
  const double p0 = static_cast<double>(sm.next() % 1000) / 1000.0 * 6.28318;
  const double p1 = static_cast<double>(sm.next() % 1000) / 1000.0 * 6.28318;
  const double t = static_cast<double>(index) * 0.045;

  Scene s;
  s.blobs[0].color = colors_[0];
  s.blobs[0].cx = kWidth * (0.5 + 0.35 * std::sin(t + p0));
  s.blobs[0].cy = kHeight * (0.5 + 0.30 * std::cos(1.3 * t + p0));
  s.blobs[1].color = colors_[1];
  s.blobs[1].cx = kWidth * (0.5 + 0.35 * std::cos(0.8 * t + p1));
  s.blobs[1].cy = kHeight * (0.5 + 0.30 * std::sin(1.1 * t + p1));
  return s;
}

void SceneGenerator::render(std::int64_t index, std::span<std::byte> data, int stride) const {
  if (stride <= 0) throw std::invalid_argument("SceneGenerator: stride must be positive");
  FrameView frame(data);
  const Scene scene = scene_at(index);
  // Per-frame noise stream: deterministic but different per frame.
  Xoshiro256 rng(seed_ ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(index + 1)));

  for (int y = 0; y < kHeight; y += stride) {
    std::uint8_t* row = frame.row(y);
    // Noisy gray background: one draw per grid pixel, in row-major order.
    for (int x = 0; x < kWidth; x += stride) {
      const auto noise = static_cast<std::uint8_t>(96 + (rng.next() & 31));
      std::uint8_t* out = row + 3 * x;
      out[0] = noise;
      out[1] = noise;
      out[2] = noise;
    }
    // Blobs in order, so a later blob wins where they overlap. Each paints
    // only the grid columns of its chord on this row, widened by one column
    // each side; the exact disc predicate still decides every column.
    for (const Blob& b : scene.blobs) {
      const double dy = y - b.cy;
      const double r2 = b.radius * b.radius;
      if (dy * dy > r2) continue;  // dx² + dy² ≥ dy² > r², whatever dx
      const double half = std::sqrt(r2 - dy * dy);
      const int lo = std::max(0, static_cast<int>(std::floor(b.cx - half)) - 1);
      const int hi = std::min(kWidth - 1, static_cast<int>(std::ceil(b.cx + half)) + 1);
      for (int x = (lo + stride - 1) / stride * stride; x <= hi; x += stride) {
        const double dx = x - b.cx;
        if (dx * dx + dy * dy <= r2) {
          std::uint8_t* out = row + 3 * x;
          out[0] = b.color.r;
          out[1] = b.color.g;
          out[2] = b.color.b;
        }
      }
    }
  }
}

}  // namespace stampede::vision
