/// \file micro_channel.cpp
/// \brief Micro-benchmarks of the runtime primitives: channel put/get at
///        varying occupancy and consumer counts, in-order and windowed
///        access, GC pressure, queue ops, item allocation at the
///        paper's payload sizes, and trace recording.
///
/// Run via bench/run_bench.sh to emit BENCH_channel.json at the repo
/// root — every PR appends to that perf trajectory.
#include <benchmark/benchmark.h>

#include <cstring>

#include "runtime/channel.hpp"
#include "runtime/pool.hpp"
#include "runtime/queue.hpp"
#include "stats/recorder.hpp"
#include "vision/records.hpp"

namespace stampede {
namespace {

struct Fixture {
  ManualClock clock;
  MemoryTracker tracker{1};
  PayloadPool pool{PoolConfig{}, &tracker};
  stats::Recorder recorder;
  cluster::Topology topo = cluster::Topology::single_node();
  RunContext ctx;
  std::stop_source stop;

  Fixture() {
    ctx.clock = &clock;
    ctx.tracker = &tracker;
    ctx.pool = &pool;
    ctx.recorder = &recorder;
    ctx.topology = &topo;
    ctx.gc = gc::Kind::kDeadTimestamp;
  }

  std::shared_ptr<Item> item(Timestamp ts, std::size_t bytes = 256) {
    return std::make_shared<Item>(ctx, ts, bytes, 100, 0, std::vector<ItemId>{}, Nanos{0});
  }
};

/// Steady-state put + get_latest with `consumers` active readers while a
/// pinning consumer holds the DGC frontier `occupancy` items back, so the
/// channel stores ~`occupancy` entries throughout (the regime where
/// storage layout dominates). Args: (consumers, occupancy).
void BM_ChannelGetLatest_MultiConsumer(benchmark::State& state) {
  Fixture f;
  Channel ch(f.ctx, 0, ChannelConfig{.name = "c"}, aru::Mode::kOff, make_filter(""),
             f.recorder.new_shard());
  const int n = static_cast<int>(state.range(0));
  const Timestamp occupancy = state.range(1);
  std::vector<int> consumers;
  for (int i = 0; i < n; ++i) consumers.push_back(ch.register_consumer(200 + i, 0));
  const int pin = ch.register_consumer(300, 0);

  // Pre-fill to the target occupancy so the first timed iteration already
  // runs at depth.
  Timestamp ts = 0;
  for (; ts < occupancy; ++ts) ch.put(f.item(ts), f.stop.get_token());
  for (const int c : consumers) {
    (void)ch.get_latest(c, aru::kUnknownStp, kNoTimestamp, f.stop.get_token());
  }

  for (auto _ : state) {
    ch.put(f.item(ts), f.stop.get_token());
    for (const int c : consumers) {
      benchmark::DoNotOptimize(
          ch.get_latest(c, aru::kUnknownStp, kNoTimestamp, f.stop.get_token()));
    }
    if (ts >= occupancy) ch.raise_guarantee(pin, ts - occupancy + 1);
    ++ts;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["occupancy"] = static_cast<double>(ch.size());
}
BENCHMARK(BM_ChannelGetLatest_MultiConsumer)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({4, 64})
    ->Args({8, 64})
    ->Args({4, 256});

/// In-order consumption lagging `occupancy` items behind the producer —
/// the storage cost of get_next's oldest-unseen lookup at depth.
void BM_ChannelGetNext(benchmark::State& state) {
  Fixture f;
  Channel ch(f.ctx, 0, ChannelConfig{.name = "c"}, aru::Mode::kOff, make_filter(""),
             f.recorder.new_shard());
  const Timestamp occupancy = state.range(0);
  const int c = ch.register_consumer(200, 0);
  const int pin = ch.register_consumer(300, 0);

  Timestamp ts = 0;
  for (; ts < occupancy; ++ts) ch.put(f.item(ts), f.stop.get_token());

  for (auto _ : state) {
    ch.put(f.item(ts), f.stop.get_token());
    benchmark::DoNotOptimize(
        ch.get_next(c, aru::kUnknownStp, kNoTimestamp, f.stop.get_token()));
    if (ts >= occupancy) ch.raise_guarantee(pin, ts - occupancy + 1);
    ++ts;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["occupancy"] = static_cast<double>(ch.size());
}
BENCHMARK(BM_ChannelGetNext)->Arg(1)->Arg(64)->Arg(256);

/// Sliding-window fetch at window sizes 8/64: get_window's own guarantee
/// holds occupancy at ~window, so the newest-window walk runs at depth.
void BM_ChannelGetWindow(benchmark::State& state) {
  Fixture f;
  Channel ch(f.ctx, 0, ChannelConfig{.name = "c"}, aru::Mode::kOff, make_filter(""),
             f.recorder.new_shard());
  const auto window = static_cast<std::size_t>(state.range(0));
  const int c = ch.register_consumer(200, 0);

  Timestamp ts = 0;
  for (; ts < static_cast<Timestamp>(window); ++ts) ch.put(f.item(ts), f.stop.get_token());

  for (auto _ : state) {
    ch.put(f.item(ts), f.stop.get_token());
    benchmark::DoNotOptimize(ch.get_window(c, window, aru::kUnknownStp, f.stop.get_token()));
    ++ts;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["occupancy"] = static_cast<double>(ch.size());
}
BENCHMARK(BM_ChannelGetWindow)->Arg(8)->Arg(64);

/// GC-pressure scenario: Transparent GC with one laggard consumer that
/// never reads, so nothing is ever collectible — every put/get still pays
/// the collector's scan over the resident entries. Rewards an incremental
/// collector that early-exits on an unchanged frontier. Args: occupancy.
void BM_ChannelGcPressure(benchmark::State& state) {
  Fixture f;
  f.ctx.gc = gc::Kind::kTransparent;
  const Timestamp occupancy = state.range(0);
  constexpr int kOpsPerRound = 64;

  for (auto _ : state) {
    state.PauseTiming();
    Channel ch(f.ctx, 0, ChannelConfig{.name = "c"}, aru::Mode::kOff, make_filter(""),
               f.recorder.new_shard());
    const int c = ch.register_consumer(200, 0);
    ch.register_consumer(300, 0);  // laggard: never reads, pins everything
    Timestamp ts = 0;
    for (; ts < occupancy; ++ts) ch.put(f.item(ts), f.stop.get_token());
    state.ResumeTiming();

    for (int i = 0; i < kOpsPerRound; ++i) {
      ch.put(f.item(ts++), f.stop.get_token());
      benchmark::DoNotOptimize(
          ch.get_latest(c, aru::kUnknownStp, kNoTimestamp, f.stop.get_token()));
    }
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerRound);
}
BENCHMARK(BM_ChannelGcPressure)->Arg(64)->Arg(256)->Arg(1024);

void BM_ChannelSkipScan(benchmark::State& state) {
  // One get skipping over `n-1` stale items — the cost of the skip-over
  // access pattern itself.
  Fixture f;
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Channel ch(f.ctx, 0, ChannelConfig{.name = "c"}, aru::Mode::kOff, make_filter(""),
               f.recorder.new_shard());
    const int c = ch.register_consumer(200, 0);
    for (Timestamp ts = 0; ts < n; ++ts) ch.put(f.item(ts), f.stop.get_token());
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        ch.get_latest(c, aru::kUnknownStp, kNoTimestamp, f.stop.get_token()));
  }
}
BENCHMARK(BM_ChannelSkipScan)->Arg(2)->Arg(16)->Arg(128);

/// Random access by timestamp at depth (binary search vs tree walk).
void BM_ChannelGetAt(benchmark::State& state) {
  Fixture f;
  f.ctx.gc = gc::Kind::kNone;
  Channel ch(f.ctx, 0, ChannelConfig{.name = "c"}, aru::Mode::kOff, make_filter(""),
             f.recorder.new_shard());
  const Timestamp n = state.range(0);
  const int c = ch.register_consumer(200, 0);
  for (Timestamp ts = 0; ts < n; ++ts) ch.put(f.item(ts), f.stop.get_token());
  Timestamp probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.get_at(c, probe, aru::kUnknownStp));
    probe = (probe + 17) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelGetAt)->Arg(64)->Arg(1024);

void BM_QueuePutGet(benchmark::State& state) {
  Fixture f;
  Queue q(f.ctx, 0, QueueConfig{.name = "q"}, aru::Mode::kOff, make_filter(""),
          f.recorder.new_shard());
  const int c = q.register_consumer(200, 0);
  Timestamp ts = 0;
  for (auto _ : state) {
    q.put(f.item(ts), f.stop.get_token());
    benchmark::DoNotOptimize(q.get(c, aru::kUnknownStp, f.stop.get_token()));
    ++ts;
  }
}
BENCHMARK(BM_QueuePutGet);

/// Steady-state put + get_latest with a real payload write each iteration
/// — the end-to-end per-item cost a stage pays at the paper's frame and
/// mask sizes. With the pool wired into the fixture the slab freed by DGC
/// on iteration N is the one re-acquired on N+1, so this measures the
/// recycled path, not the allocator.
void BM_ChannelPutGetPayload(benchmark::State& state) {
  Fixture f;
  Channel ch(f.ctx, 0, ChannelConfig{.name = "c"}, aru::Mode::kOff, make_filter(""),
             f.recorder.new_shard());
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const int c = ch.register_consumer(200, 0);
  Timestamp ts = 0;
  for (auto _ : state) {
    auto item = f.item(ts, bytes);
    std::memset(item->mutable_data().data(), 0x2A, bytes);
    ch.put(std::move(item), f.stop.get_token());
    benchmark::DoNotOptimize(
        ch.get_latest(c, aru::kUnknownStp, kNoTimestamp, f.stop.get_token()));
    ++ts;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  const auto st = f.pool.stats();
  state.counters["pool_hit_rate"] =
      st.acquires > 0 ? static_cast<double>(st.hits) / static_cast<double>(st.acquires) : 0.0;
}
BENCHMARK(BM_ChannelPutGetPayload)
    ->Arg(static_cast<std::int64_t>(vision::kMaskBytes))
    ->Arg(static_cast<std::int64_t>(vision::kFrameBytes));

void BM_ItemAllocFree(benchmark::State& state) {
  Fixture f;
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Timestamp ts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.item(ts++, bytes));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ItemAllocFree)
    ->Arg(static_cast<std::int64_t>(vision::kLocationBytes))
    ->Arg(static_cast<std::int64_t>(vision::kMaskBytes))
    ->Arg(static_cast<std::int64_t>(vision::kFrameBytes))
    ->Arg(static_cast<std::int64_t>(vision::kHistogramBytes));

/// Trace recording: one shard appending a channel-like event stream
/// (five event types over six nodes, advancing instants, timestamps and
/// item ids; `a` alternates a frame size and a duration). Each iteration
/// records a whole trace into a fresh recorder, so the storage growth is
/// timed. Counters: seconds per event and storage bytes held per event.
/// Args: (events per trace, mean gap between events in ns); 2Mi events
/// is a run-long trace (~1 min of fullres-loopback).
void BM_ShardRecord(benchmark::State& state) {
  const std::int64_t events = state.range(0);
  const std::int64_t gap = state.range(1);
  std::int64_t held = 0;
  for (auto _ : state) {
    stats::Recorder recorder;
    stats::Shard* shard = recorder.new_shard();
    std::int64_t t = 1'000'000'000;
    for (std::int64_t i = 0; i < events; ++i) {
      t += gap / 2 + (i * 7919) % gap;
      shard->record(stats::Event{.type = static_cast<stats::EventType>(i % 5),
                                 .node = static_cast<stats::NodeRef>(i % 6),
                                 .ts = i / 6,
                                 .item = static_cast<stats::ItemId>(i / 3 + 1),
                                 .t = t,
                                 .a = (i & 1) != 0 ? 737'280 : gap * (i % 13),
                                 .b = i % 3});
    }
    benchmark::DoNotOptimize(shard);
    benchmark::ClobberMemory();
    held = recorder.block_bytes();
  }
  state.SetItemsProcessed(state.iterations() * events);
  state.counters["sec_per_event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.counters["bytes_per_event"] =
      static_cast<double>(held) / static_cast<double>(events);
}
BENCHMARK(BM_ShardRecord)->Args({1 << 16, 2'000})->Args({1 << 21, 2'000});

}  // namespace
}  // namespace stampede

BENCHMARK_MAIN();
