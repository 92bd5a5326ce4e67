// Metric extraction and correctness checks of the tracker benchmark, on
// synthetic traces with known answers.
#include <gtest/gtest.h>

#include <algorithm>

#include "metrics.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kMs = 1'000'000;

// Node ids of the synthetic in-process tracker trace.
constexpr NodeRef kDigitizer = 0;
constexpr NodeRef kFrames = 1;
constexpr NodeRef kDetect = 2;
constexpr NodeRef kLoc = 3;
constexpr NodeRef kGui = 4;

Event ev(EventType type, NodeRef node, std::int64_t t, Ts ts = -1, std::uint64_t item = 0,
         std::int64_t a = 0) {
  return Event{.type = type, .node = node, .ts = ts, .item = item, .t = t, .a = a};
}

void sort_events(Trace& t) {
  std::stable_sort(t.events.begin(), t.events.end(),
                   [](const Event& x, const Event& y) { return x.t < y.t; });
}

/// One frame per 10 ms: digitizer allocates frame (id 100+ts) at ts·10,
/// produces it for 2 ms, the detector picks it up after 1 ms, allocates
/// a record (id 200+ts) and works 4 ms, the record waits 1 ms for the
/// sink, which emits it 1 ms later. Latency 9 ms: vision 2+4+1, runtime 2.
Trace tracker_trace(int frames) {
  Trace t;
  t.node_names = {"digitizer", "frames", "detect1", "loc1", "gui"};
  for (int ts = 0; ts < frames; ++ts) {
    const std::int64_t base = ts * 10 * kMs;
    const std::uint64_t frame = 100 + static_cast<std::uint64_t>(ts);
    const std::uint64_t rec = 200 + static_cast<std::uint64_t>(ts);
    t.items.push_back({.id = frame, .ts = ts, .bytes = 1000, .producer = kDigitizer,
                       .t_alloc = base});
    t.items.push_back({.id = rec, .ts = ts, .bytes = 10, .producer = kDetect,
                       .t_alloc = base + 3 * kMs, .lineage = {frame}});
    t.events.push_back(ev(EventType::kAlloc, kDigitizer, base, ts, frame, 1000));
    t.events.push_back(ev(EventType::kCompute, kDigitizer, base + 2 * kMs, ts, frame, 2 * kMs));
    t.events.push_back(ev(EventType::kPut, kFrames, base + 2 * kMs, ts, frame));
    t.events.push_back(ev(EventType::kConsume, kDetect, base + 3 * kMs, ts, frame));
    t.events.push_back(ev(EventType::kAlloc, kDetect, base + 3 * kMs, ts, rec, 10));
    t.events.push_back(ev(EventType::kCompute, kDetect, base + 7 * kMs, ts, rec, 4 * kMs));
    t.events.push_back(ev(EventType::kPut, kLoc, base + 7 * kMs, ts, rec));
    t.events.push_back(ev(EventType::kFree, kDigitizer, base + 7 * kMs, ts, frame, 1000));
    t.events.push_back(ev(EventType::kConsume, kGui, base + 8 * kMs, ts, rec));
    t.events.push_back(ev(EventType::kEmit, kGui, base + 9 * kMs, ts, rec));
    t.events.push_back(ev(EventType::kDisplay, kGui, base + 9 * kMs, ts));
    t.events.push_back(ev(EventType::kFree, kDetect, base + 9 * kMs, ts, rec, 10));
  }
  sort_events(t);
  t.t_begin = 0;
  t.t_end = frames * 10 * kMs;
  return t;
}

TEST(Extraction, ResultsCountDistinctTimestampsInWindow) {
  Trace t = tracker_trace(10);
  // A second model's result for the same frame is not a new result.
  t.events.push_back(ev(EventType::kEmit, kGui, 9 * kMs, 0, 200));
  sort_events(t);
  EXPECT_EQ(distinct_results(t, kGui, {.t0 = 0, .t1 = 100 * kMs}), 10);
  // Window [20 ms, 50 ms] holds the emissions of frames 2, 3 and 4.
  const Window w{.t0 = 20 * kMs, .t1 = 50 * kMs};
  EXPECT_EQ(distinct_results(t, kGui, w), 3);
  EXPECT_DOUBLE_EQ(static_cast<double>(distinct_results(t, kGui, w)) / w.seconds(), 100.0);
  // The other model's record of frame 4, emitted in the next window, is
  // not a new result there: counts over adjacent windows add up.
  t.events.push_back(ev(EventType::kEmit, kGui, 51 * kMs, 4, 304));
  sort_events(t);
  EXPECT_EQ(distinct_results(t, kGui, {.t0 = 50 * kMs + 1, .t1 = 80 * kMs}), 3);
  EXPECT_EQ(distinct_results(t, kGui, {.t0 = 20 * kMs, .t1 = 80 * kMs}), 6);
}

TEST(Extraction, TailPercentileKeepsTenSamplesBeyond) {
  std::vector<double> big;
  for (int i = 1; i <= 300; ++i) big.push_back(i);
  const Percentile p = tail_percentile(big, 95, 10);
  EXPECT_EQ(p.q, 95.0);
  EXPECT_EQ(p.value, 285.0);
  EXPECT_EQ(p.samples, 300);
  EXPECT_EQ(p.beyond, 15);

  std::vector<double> small;
  for (int i = 1; i <= 100; ++i) small.push_back(i);
  const Percentile q = tail_percentile(small, 95, 10);
  EXPECT_EQ(q.q, 90.0);  // p95 would leave only 5 samples beyond
  EXPECT_EQ(q.value, 90.0);
  EXPECT_EQ(q.beyond, 10);
  EXPECT_EQ(q.samples, 100);

  EXPECT_EQ(tail_percentile(small, 50, 0).value, 50.0);
  EXPECT_EQ(tail_percentile({}, 95, 10).samples, 0);
}

TEST(Extraction, QuietSlicesKeepTheLessStolenHalf) {
  // Four one-second slices with 0 %, 10 %, 0 % and 20 % of host CPU stolen.
  const std::vector<HostMark> marks = {{.t = 0, .steal = 0, .total = 0},
                                       {.t = 1, .steal = 0, .total = 100},
                                       {.t = 2, .steal = 10, .total = 200},
                                       {.t = 3, .steal = 10, .total = 300},
                                       {.t = 4, .steal = 30, .total = 400}};
  const std::vector<Window> quiet = quiet_slices(marks);
  ASSERT_EQ(quiet.size(), 2u);
  EXPECT_EQ(quiet[0].t0, 0);
  EXPECT_EQ(quiet[0].t1, 1);
  EXPECT_EQ(quiet[1].t0, 2);
  EXPECT_EQ(quiet[1].t1, 3);
  // No steal reported: every slice is kept.
  EXPECT_EQ(quiet_slices({{.t = 0}, {.t = 1}, {.t = 2}}).size(), 2u);
}

TEST(Extraction, CpuPerFrame) {
  EXPECT_DOUBLE_EQ(cpu_ms_per_frame(2.0, 400), 5.0);
  EXPECT_DOUBLE_EQ(cpu_ms_per_frame(2.0, 0), 0.0);
}

TEST(Extraction, LatencyMatchesFrameTimestampAcrossFragments) {
  Trace front;
  front.node_names = {"digitizer"};
  front.events = {ev(EventType::kAlloc, 0, 1 * kMs, 5, 7, 100),
                  ev(EventType::kAlloc, 0, 2 * kMs, 6, 8, 100),
                  ev(EventType::kAlloc, 0, 3 * kMs, 9, 9, 100)};
  Trace back;
  back.node_names = {"frames", "detect1", "gui"};
  back.events = {
      // Item ids differ from the front's: each process numbers its own.
      ev(EventType::kEmit, 2, 11 * kMs, 5, 1),
      ev(EventType::kEmit, 2, 14 * kMs, 6, 2),
      ev(EventType::kEmit, 2, 15 * kMs, 42, 3),   // no such frame: skipped
      ev(EventType::kEmit, 2, 90 * kMs, 9, 4),    // outside the window
  };
  const auto lat = ts_matched_latency_ms(front, 0, back, 2, {.t0 = 0, .t1 = 50 * kMs});
  ASSERT_EQ(lat.size(), 2u);
  EXPECT_DOUBLE_EQ(lat[0], 10.0);
  EXPECT_DOUBLE_EQ(lat[1], 12.0);
}

TEST(Extraction, CriticalPathTilesTheLatency) {
  const Trace t = tracker_trace(20);
  const auto splits = critical_path({.front = &t, .back = &t}, {.t0 = 0, .t1 = 200 * kMs});
  ASSERT_EQ(splits.size(), 20u);
  for (const PathSplit& s : splits) {
    EXPECT_DOUBLE_EQ(s.total, 9.0);
    EXPECT_DOUBLE_EQ(s.vision, 7.0);
    EXPECT_DOUBLE_EQ(s.runtime, 2.0);
    EXPECT_DOUBLE_EQ(s.cluster, 0.0);
    EXPECT_DOUBLE_EQ(s.net, 0.0);
  }
  const auto lat = ts_matched_latency_ms(t, kDigitizer, t, kGui, {.t0 = 0, .t1 = 200 * kMs});
  EXPECT_DOUBLE_EQ(median(lat), 9.0);
}

TEST(Extraction, CriticalPathMovesTransfersToCluster) {
  Trace t = tracker_trace(1);
  // The detector spent 0.5 ms of its 1 ms wait on a simulated transfer.
  t.events.push_back(ev(EventType::kTransfer, kDetect, 3 * kMs, -1, 0, kMs / 2));
  sort_events(t);
  const auto splits = critical_path({.front = &t, .back = &t}, {.t0 = 0, .t1 = 10 * kMs});
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_DOUBLE_EQ(splits[0].cluster, 0.5);
  EXPECT_DOUBLE_EQ(splits[0].runtime, 1.5);
  EXPECT_DOUBLE_EQ(splits[0].vision + splits[0].runtime + splits[0].cluster, 9.0);
}

TEST(Extraction, TsMatchedUsage) {
  const Trace t = tracker_trace(10);
  const Window w{.t0 = 0, .t1 = 100 * kMs};
  std::vector<Ts> emitted;
  for (int ts = 0; ts < 10; ++ts) emitted.push_back(ts);
  const TsMatchedUsage all = ts_matched_usage({&t}, emitted, w);
  EXPECT_NEAR(all.wasted_mem_pct, 0.0, 1e-9);
  // Ideal GC frees each frame at its last use (3 ms) and record at 9 ms.
  EXPECT_NEAR(all.igc_mb * 1024 * 1024, (1000.0 * 3 + 10.0 * 6) / 10, 1e-6);
  // Drop half the timestamps from the emitted set: their items are waste.
  const TsMatchedUsage half = ts_matched_usage({&t}, {0, 1, 2, 3, 4}, w);
  EXPECT_NEAR(half.wasted_mem_pct, 50.0, 1e-9);
  EXPECT_NEAR(half.wasted_comp_pct, 50.0, 1e-9);
}

TEST(Checks, PassOnACleanTrace) {
  const Trace t = tracker_trace(10);
  EXPECT_TRUE(check_sink_increasing(t, kGui, "x").ok);
  EXPECT_TRUE(check_alloc_free_balance(t, "x").ok);
  EXPECT_TRUE(check_detection("m", 95, 5, 3.0, 0.9, 10.0).ok);
}

TEST(Checks, SinkOrderFiresOnARepeatedTimestamp) {
  Trace t = tracker_trace(10);
  // A stale record of the same model emitted after frame 5's.
  t.events.push_back(ev(EventType::kEmit, kGui, 59 * kMs + 1, 4, 204));
  sort_events(t);
  const Check c = check_sink_increasing(t, kGui, "x");
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.detail.find("1 non-increasing"), std::string::npos);
  EXPECT_EQ(non_increasing_results(t, kGui, {.t0 = 0, .t1 = 100 * kMs}), 1);
  EXPECT_EQ(non_increasing_results(t, kGui, {.t0 = 0, .t1 = 50 * kMs}), 0);
}

TEST(Checks, SinkOrderFiresOnADisplayGoingBack) {
  Trace t = tracker_trace(3);
  t.events.push_back(ev(EventType::kDisplay, kGui, 29 * kMs + 1, 1));
  sort_events(t);
  EXPECT_FALSE(check_sink_increasing(t, kGui, "x").ok);
}

TEST(Checks, SinkOrderFiresWithoutResults) {
  Trace t = tracker_trace(3);
  std::erase_if(t.events, [](const Event& e) { return e.type == EventType::kEmit; });
  EXPECT_FALSE(check_sink_increasing(t, kGui, "x").ok);
  EXPECT_FALSE(check_sink_increasing(t, -1, "x").ok);
}

TEST(Checks, BalanceFiresOnALeakedItem) {
  Trace t = tracker_trace(3);
  std::erase_if(t.events, [](const Event& e) { return e.type == EventType::kFree && e.item == 101; });
  const Check c = check_alloc_free_balance(t, "front");
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.name, "alloc_free_balance:front");
  EXPECT_NE(c.detail.find("1 live (1000 B)"), std::string::npos);
}

TEST(Checks, BalanceFiresOnAMismatchedFree) {
  Trace t = tracker_trace(3);
  for (Event& e : t.events) {
    if (e.type == EventType::kFree && e.item == 102) e.a = 999;
  }
  EXPECT_FALSE(check_alloc_free_balance(t, "x").ok);
}

TEST(Checks, BalanceFiresOnAnUnreleasedReplica) {
  Trace t = tracker_trace(3);
  t.events.push_back(ev(EventType::kReplicate, kDetect, 3 * kMs, 0, 100, 1000));
  sort_events(t);
  EXPECT_FALSE(check_alloc_free_balance(t, "x").ok);
  t.events.push_back(ev(EventType::kReplicaFree, kDetect, 8 * kMs, 0, 100, 1000));
  sort_events(t);
  EXPECT_TRUE(check_alloc_free_balance(t, "x").ok);
}

TEST(Checks, DetectionFiresOnMissesOrError) {
  EXPECT_FALSE(check_detection("m", 80, 20, 3.0, 0.9, 10.0).ok);
  EXPECT_FALSE(check_detection("m", 99, 1, 12.0, 0.9, 10.0).ok);
  EXPECT_FALSE(check_detection("m", 0, 0, 0.0, 0.9, 10.0).ok);
}

}  // namespace
}  // namespace perfbench
