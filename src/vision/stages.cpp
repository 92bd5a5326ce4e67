#include "vision/stages.hpp"

#include <cmath>

#include "vision/kernels.hpp"
#include "vision/records.hpp"

namespace stampede::vision {

StageCosts StageCosts::scaled(double f) const {
  auto mul = [f](Nanos n) {
    return Nanos{static_cast<std::int64_t>(static_cast<double>(n.count()) * f)};
  };
  StageCosts out = *this;
  out.digitizer = mul(digitizer);
  out.background = mul(background);
  out.histogram = mul(histogram);
  out.detect0 = mul(detect0);
  out.detect1 = mul(detect1);
  out.gui = mul(gui);
  return out;
}

Nanos jittered(Nanos base, double jitter, Xoshiro256& rng) {
  if (jitter <= 0.0) return base;
  const double factor = 1.0 + jitter * (2.0 * rng.uniform() - 1.0);
  return Nanos{static_cast<std::int64_t>(static_cast<double>(base.count()) * factor)};
}

namespace {

/// Runs `kernel` timing it on the task clock, accounts the real time, and
/// pads with emulated compute up to the jittered `target`.
template <typename Fn>
void timed_stage_work(TaskContext& ctx, Nanos target, double jitter, Fn&& kernel) {
  const Nanos goal = jittered(target, jitter, ctx.rng());
  const Nanos t0 = ctx.now();
  kernel();
  const Nanos real = ctx.now() - t0;
  ctx.account_compute(real);
  if (goal > real) ctx.compute(goal - real);
}

}  // namespace

TaskBody make_digitizer(std::shared_ptr<SceneGenerator> gen, StageCosts costs,
                        std::int64_t max_frames, int stride) {
  struct State {
    std::shared_ptr<SceneGenerator> gen;
    Timestamp next_ts = 0;
  };
  auto state = std::make_shared<State>(State{.gen = std::move(gen)});
  return [state, costs, max_frames, stride](TaskContext& ctx) {
    if (state->next_ts >= max_frames || ctx.stopping()) return TaskStatus::kDone;
    const Timestamp ts = state->next_ts++;

    auto frame = ctx.make_item(ts, kFrameBytes, {});
    timed_stage_work(ctx, costs.digitizer, costs.jitter,
                     [&] { state->gen->render(ts, frame->mutable_data(), stride); });
    ctx.put(0, frame);
    return state->next_ts >= max_frames ? TaskStatus::kDone : TaskStatus::kContinue;
  };
}

TaskBody make_background(StageCosts costs, int stride) {
  // The previous frame's luma on the stride grid; frame_difference both
  // reads and refreshes it.
  auto prev = std::make_shared<LumaPlane>();
  return [prev, costs, stride](TaskContext& ctx) {
    auto frame = ctx.get(0);
    if (!frame) return TaskStatus::kDone;

    // DGC computation elimination: skip stage work whose output timestamp
    // is already dead downstream (paper §3.2 — rarely fires because
    // upstream stages run ahead of downstream ones).
    if (!ctx.outputs_want(frame->ts())) {
      ctx.elide(costs.background);
      return TaskStatus::kContinue;
    }

    auto mask = ctx.make_item(frame->ts(), kMaskBytes, {frame->id()});
    timed_stage_work(ctx, costs.background, costs.jitter, [&] {
      // The first call has no stored luma and writes an all-zero mask on
      // the grid; pooled payloads are not zero-filled, so that matters.
      frame_difference(ConstFrameView(frame->data()), *prev, mask->mutable_data(),
                       /*threshold=*/24, stride);
    });
    ctx.put(0, mask);
    return TaskStatus::kContinue;
  };
}

TaskBody make_histogram(StageCosts costs, int stride) {
  return [costs, stride](TaskContext& ctx) {
    auto frame = ctx.get(0);
    if (!frame) return TaskStatus::kDone;
    if (!ctx.outputs_want(frame->ts())) {
      ctx.elide(costs.histogram);
      return TaskStatus::kContinue;
    }

    auto hist = ctx.make_item(frame->ts(), kHistogramBytes, {frame->id()});
    timed_stage_work(ctx, costs.histogram, costs.jitter, [&] {
      color_histogram(ConstFrameView(frame->data()), hist->mutable_data(), stride);
    });
    ctx.put(0, hist);
    return TaskStatus::kContinue;
  };
}

TaskBody make_target_detection(std::shared_ptr<SceneGenerator> gen, StageCosts costs,
                               int model, int stride,
                               std::shared_ptr<DetectionStats> stats) {
  const Nanos base = model == 0 ? costs.detect0 : costs.detect1;
  return [gen, costs, base, model, stride, stats](TaskContext& ctx) {
    auto mask = ctx.get(0);
    if (!mask) return TaskStatus::kDone;
    auto hist = ctx.get(1);
    if (!hist) return TaskStatus::kDone;
    auto frame = ctx.get(2);
    if (!frame) return TaskStatus::kDone;

    if (!ctx.outputs_want(frame->ts())) {
      ctx.elide(base);
      return TaskStatus::kContinue;
    }

    auto loc = ctx.make_item(frame->ts(), kLocationBytes,
                             {mask->id(), hist->id(), frame->id()});
    timed_stage_work(ctx, base, costs.jitter, [&] {
      LocationRecord rec =
          detect_target(ConstFrameView(frame->data()), mask->data(),
                        ConstHistogramView(hist->data()), gen->model_color(model), model,
                        stride);
      rec.frame_ts = frame->ts();
      const Scene truth = gen->scene_at(frame->ts());
      rec.truth_x = truth.blobs[model].cx;
      rec.truth_y = truth.blobs[model].cy;
      write_location(loc->mutable_data(), rec);
      if (stats) {
        if (rec.found != 0) {
          const double dx = rec.x - rec.truth_x;
          const double dy = rec.y - rec.truth_y;
          stats->found.fetch_add(1, std::memory_order_relaxed);
          stats->err_millipx.fetch_add(
              static_cast<std::int64_t>(std::sqrt(dx * dx + dy * dy) * 1000.0),
              std::memory_order_relaxed);
        } else {
          stats->missed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    ctx.put(0, loc);
    return TaskStatus::kContinue;
  };
}

TaskBody make_gui(StageCosts costs) {
  return [costs](TaskContext& ctx) {
    auto loc1 = ctx.get(0);
    if (!loc1) return TaskStatus::kDone;
    auto loc2 = ctx.get(1);
    if (!loc2) return TaskStatus::kDone;

    // "Display": touch both records (deserialize) and burn the GUI cost.
    timed_stage_work(ctx, costs.gui, costs.jitter, [&] {
      (void)read_location(loc1->data());
      (void)read_location(loc2->data());
    });
    ctx.emit(*loc1);
    ctx.emit(*loc2);
    ctx.display(std::max(loc1->ts(), loc2->ts()));
    return TaskStatus::kContinue;
  };
}

}  // namespace stampede::vision
