/// \file test_multifid.cpp
/// \brief The Figure-1 multi-fidelity pipeline.
#include "vision/multifid.hpp"

#include <gtest/gtest.h>

#include "stats/postmortem.hpp"

namespace stampede::vision {
namespace {

MultiFidOptions quick(aru::Mode mode) {
  MultiFidOptions opts;
  opts.aru = mode;
  opts.digitizer_cost = millis(2);
  opts.lowfi_cost = millis(5);
  opts.decision_cost = millis(1);
  opts.highfi_cost = millis(15);
  opts.gui_cost = millis(1);
  return opts;
}

TEST(MultiFid, GraphShape) {
  RuntimeConfig cfg;
  cfg.aru.mode = aru::Mode::kMin;
  Runtime rt(std::move(cfg));
  const MultiFidHandles h = build_multifid(rt, quick(aru::Mode::kMin));
  EXPECT_EQ(rt.tasks(), 5u);
  EXPECT_EQ(rt.channels(), 3u);
  EXPECT_EQ(rt.queues(), 1u);
  EXPECT_NO_THROW(rt.graph().validate());
  EXPECT_TRUE(rt.graph().is_source(h.digitizer));
  EXPECT_TRUE(rt.graph().is_sink(h.gui));
  // High-fi reads both the decision queue and the frames channel.
  EXPECT_EQ(rt.graph().predecessors(h.highfi).size(), 2u);
}

TEST(MultiFid, EndToEndProducesHighFiResults) {
  RuntimeConfig cfg;
  cfg.aru.mode = aru::Mode::kMin;
  Runtime rt(std::move(cfg));
  const MultiFidHandles h = build_multifid(rt, quick(aru::Mode::kMin));
  rt.start();
  rt.clock().sleep_for(millis(1500));
  rt.stop();

  EXPECT_GT(h.counters->lowfi_scans.load(), 10);
  EXPECT_GT(h.counters->decisions_issued.load(), 5);
  EXPECT_GT(h.counters->highfi_runs.load(), 5);
  EXPECT_GT(rt.recorder().emits(), 5);
}

TEST(MultiFid, AruBoundsTheDecisionQueue) {
  auto peak_queue_for = [](aru::Mode mode) {
    RuntimeConfig cfg;
    cfg.aru.mode = mode;
    Runtime rt(std::move(cfg));
    const MultiFidHandles h = build_multifid(rt, quick(mode));
    rt.start();
    std::size_t peak = 0;
    for (int i = 0; i < 15; ++i) {
      rt.clock().sleep_for(millis(100));
      peak = std::max(peak, h.decisions->size());
    }
    rt.stop();
    return peak;
  };
  const std::size_t peak_off = peak_queue_for(aru::Mode::kOff);
  const std::size_t peak_min = peak_queue_for(aru::Mode::kMin);
  // Queues cannot skip: without ARU the backlog grows with the lowfi/highfi
  // rate gap (~3x); with ARU the pipeline is paced and the queue stays small.
  EXPECT_GT(peak_off, 20u);
  EXPECT_LT(peak_min, peak_off / 2);
}

TEST(MultiFid, FramesChannelIsCollectedDespiteRandomAccessConsumer) {
  // The high-fi stage reads frames only via get_at; release_until must
  // keep the frames channel bounded.
  RuntimeConfig cfg;
  cfg.aru.mode = aru::Mode::kMin;
  Runtime rt(std::move(cfg));
  const MultiFidHandles h = build_multifid(rt, quick(aru::Mode::kMin));
  rt.start();
  rt.clock().sleep_for(millis(1200));
  const std::size_t stored = h.frames->size();
  rt.stop();
  EXPECT_LT(stored, 25u);
}

TEST(MultiFid, HighFiResultsTrackGroundTruth) {
  RuntimeConfig cfg;
  cfg.aru.mode = aru::Mode::kMin;
  Runtime rt(std::move(cfg));
  MultiFidOptions opts = quick(aru::Mode::kMin);
  opts.highfi_stride = 2;  // fine analysis
  build_multifid(rt, opts);
  rt.start();
  rt.wait_emits(5, seconds(20));
  rt.stop();
  const auto trace = rt.take_trace();

  // Emitted high-fi records must have been produced by the highfi stage
  // and be marked successful.
  const stats::Analyzer analyzer(trace);
  int emitted = 0;
  for (const auto& e : trace.events) {
    if (e.type != stats::EventType::kEmit) continue;
    ++emitted;
    EXPECT_TRUE(analyzer.successful(e.item));
  }
  EXPECT_GE(emitted, 5);
}

}  // namespace
}  // namespace stampede::vision
