/// \file net_throughput.cpp
/// \brief Loopback micro-benchmarks of the networked transport: put and
///        get round-trip latency and sustained items/bytes per second at
///        the paper's payload scales (1 KB location records up to 1 MB
///        frame-sized items).
///
/// Each benchmark stands up an in-process ChannelServer on an ephemeral
/// loopback port and drives it through a RemoteChannel proxy, so the
/// measured path is the full production stack: wire encode → TCP →
/// server decode → channel op → ack encode → TCP → proxy decode.
///
/// Run via bench/run_bench.sh to emit BENCH_net.json at the repo root.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <stop_token>

#include "net/remote_channel.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/registry.hpp"

namespace stampede {
namespace {

/// One served channel + one attached proxy on loopback.
struct Loop {
  Runtime rt;
  Channel* channel = nullptr;
  std::unique_ptr<net::ChannelServer> server;
  std::unique_ptr<net::RemoteChannel> proxy;
  std::stop_source stop;

  /// `producers`/`consumers` are the remote slot counts; the proxy claims
  /// slot 0 on each side that has one. `pooled = false` zeroes the pool's
  /// retention cap so every payload acquire on the path (producer alloc,
  /// server materialize, consumer materialize) falls through to the heap —
  /// the pre-pool behaviour, measured for the pooled-vs-unpooled series.
  /// `put_window = 0` pins the classic synchronous one-ack-per-put RPC
  /// (the round-trip baselines); BM_NetPutPipelined opens the window.
  Loop(int producers, int consumers, bool pooled = true, std::size_t put_window = 0)
      : rt(runtime_config(pooled)) {
    channel = &rt.add_channel({.name = "bench"});
    server = std::make_unique<net::ChannelServer>(
        rt, std::vector<net::ServedChannel>{{.channel = channel,
                                             .remote_producers = producers,
                                             .remote_consumers = consumers}});
    server->start();
    net::RemoteChannelConfig config = proxy_config(consumers > 0 ? 0 : -1);
    config.transport.put_window = put_window;
    config.producer_key = producers > 0 ? 0 : -1;
    proxy = std::make_unique<net::RemoteChannel>(rt, std::move(config));
  }

  // Configs are built by member assignment and moved into place: gcc 12
  // flags the strings braced designated-initializer temporaries leave
  // behind as maybe-uninitialized.
  static RuntimeConfig runtime_config(bool pooled) {
    RuntimeConfig config;
    if (!pooled) config.pool.max_retained_bytes = 0;
    return config;
  }

  /// A proxy of the served channel claiming consumer slot `consumer_key`
  /// (-1: none) and no producer slot.
  net::RemoteChannelConfig proxy_config(std::int32_t consumer_key) const {
    net::RemoteChannelConfig config;
    config.name = "bench";
    config.transport.port = server->port();
    config.consumer_key = consumer_key;
    return config;
  }

  ~Loop() { server->stop(); }

  std::shared_ptr<Item> item(Timestamp ts, std::size_t bytes) {
    return std::make_shared<Item>(rt.context(), ts, bytes, /*producer=*/100,
                                  /*cluster_node=*/0, std::vector<ItemId>{}, Nanos{0});
  }
};

/// Put round trip: encode + send + server-side materialize + channel put +
/// PutAck with the folded summary-STP. The channel has no consumers, so
/// stored items die on arrival and occupancy stays flat.
void BM_NetPutRtt(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/1, /*consumers=*/0);
  Timestamp ts = 0;
  // Warm up: first put pays the connect + Hello handshake.
  (void)loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token());

  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token()));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetPutRtt)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

/// Pipelined put throughput (wire v3): puts return once queued in the
/// bounded in-flight window, envelopes batch into scatter/gather flushes,
/// and the server settles bursts with coalesced cumulative acks. Compare
/// items/s against BM_NetPutRtt at the same size to read the win over the
/// one-ack-per-put RPC.
void BM_NetPutPipelined(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/1, /*consumers=*/0, /*pooled=*/true, /*put_window=*/64);
  Timestamp ts = 0;
  // Warm up: first put pays the connect + Hello handshake.
  (void)loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token());
  loop.proxy->drain_puts(loop.stop.get_token());

  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token()));
  }
  // Settle the in-flight tail so every counted item was actually acked.
  loop.proxy->drain_puts(loop.stop.get_token());
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetPutPipelined)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

/// Paced pipelined puts: one put every kPacedGap, the way an ARU-paced
/// source feeds a remote channel, so each ack has arrived before the next
/// put. The reported time is the put call alone (manual time; the gap is
/// not counted). `pinned_items` is the mean number of earlier items still
/// alive right after a put: slabs the sender keeps because it has not yet
/// read their acks. A put collects arrived acks once 32 KiB of payload
/// went out since the last collection, so at these sizes it stays near 0.
void BM_NetPutPaced(benchmark::State& state) {
  constexpr Nanos kPacedGap = millis(1);
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/1, /*consumers=*/0, /*pooled=*/true, /*put_window=*/64);
  Timestamp ts = 0;
  // Warm up: first put pays the connect + Hello handshake.
  (void)loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token());
  loop.proxy->drain_puts(loop.stop.get_token());

  // Earlier items, newest last; more than a full 64-slot window.
  std::array<std::weak_ptr<const Item>, 128> earlier;
  std::size_t next = 0;
  std::int64_t pinned = 0;
  Clock& clock = loop.rt.clock();
  Nanos due = clock.now();
  for (auto _ : state) {
    auto item = loop.item(ts++, bytes);
    const std::weak_ptr<const Item> watch = item;
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(loop.proxy->put(std::move(item), loop.stop.get_token()));
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    pinned += std::count_if(earlier.begin(), earlier.end(),
                            [](const auto& w) { return !w.expired(); });
    earlier[next++ % earlier.size()] = watch;
    due += kPacedGap;
    clock.sleep_until(due);
  }
  loop.proxy->drain_puts(loop.stop.get_token());
  state.counters["pinned_items"] =
      benchmark::Counter(static_cast<double>(pinned), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetPutPaced)->Arg(1 << 16)->Arg(1 << 20)->Iterations(1000)->UseManualTime();

/// Get round trip: a local put makes the channel ready, then the proxy
/// pulls the item over the wire (server-side get + item payload + backward
/// summary-STP in the reply).
void BM_NetGetRtt(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/0, /*consumers=*/1);
  Timestamp ts = 0;
  loop.channel->put(loop.item(ts++, bytes), loop.stop.get_token());
  (void)loop.proxy->get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token());

  for (auto _ : state) {
    loop.channel->put(loop.item(ts++, bytes), loop.stop.get_token());
    benchmark::DoNotOptimize(
        loop.proxy->get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token()));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetGetRtt)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

/// Producer→consumer relay through the served channel: one proxy puts,
/// another gets, so each iteration crosses the wire twice (the two-process
/// pipeline hop distributed_tracker runs at full scale).
void BM_NetPutGetPipe(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/1, /*consumers=*/1);
  Timestamp ts = 0;
  (void)loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token());
  (void)loop.proxy->get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token());

  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token()));
    benchmark::DoNotOptimize(
        loop.proxy->get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token()));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 2 * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetPutGetPipe)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

/// The same two-hop relay with pooling disabled: every payload on the path
/// is a fresh heap allocation, as before the pool existed. Diff against
/// BM_NetPutGetPipe at the same size to read the pool's share of the net
/// win separately from the scatter-gather framing.
void BM_NetPutGetPipeUnpooled(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/1, /*consumers=*/1, /*pooled=*/false);
  Timestamp ts = 0;
  (void)loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token());
  (void)loop.proxy->get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token());

  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token()));
    benchmark::DoNotOptimize(
        loop.proxy->get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token()));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 2 * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetPutGetPipeUnpooled)->Arg(1 << 16)->Arg(1 << 20);

/// Fan-out get: two consumer proxies of one served channel in one process
/// (the tracker's two detectors on `back`) each get every item. They share
/// a replica slot, so the second get of an item is answered without its
/// payload. The slot only points at replicas a consumer still holds, so
/// the first consumer keeps its item while the second gets.
/// `wire_bytes_per_item` is the traffic on both get links (both
/// directions) per item consumed: about half the payload when every
/// second get reuses the first one's replica, about the whole payload
/// when nothing is shared.
void BM_NetGetFanout(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/0, /*consumers=*/2);
  // The Loop's own proxy (private slot) stays idle; two proxies sharing
  // one slot take consumer slots 0 and 1.
  auto share = std::make_shared<net::ReplicaShare>();
  const auto sharing_consumer = [&](std::int32_t key) {
    net::RemoteChannelConfig config = loop.proxy_config(key);
    config.share = share;
    return std::make_unique<net::RemoteChannel>(loop.rt, std::move(config));
  };
  const auto first_proxy = sharing_consumer(0);
  const auto second_proxy = sharing_consumer(1);
  net::RemoteChannel& first = *first_proxy;
  net::RemoteChannel& second = *second_proxy;
  const auto get = [&](net::RemoteChannel& proxy) {
    return proxy.get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token());
  };
  Timestamp ts = 0;
  // Warm up: both links attach (the first get on a link has no epoch to
  // offer a replica under).
  loop.channel->put(loop.item(ts++, bytes), loop.stop.get_token());
  (void)get(first);
  (void)get(second);

  // Both get links of this channel share one series per direction.
  const telemetry::Registry::Labels labels = {{"link", "bench/get"}};
  telemetry::Counter& rx = loop.rt.metrics().counter("aru_net_rx_bytes_total", "", labels);
  telemetry::Counter& tx = loop.rt.metrics().counter("aru_net_tx_bytes_total", "", labels);
  const std::uint64_t wire0 = rx.value() + tx.value();
  for (auto _ : state) {
    loop.channel->put(loop.item(ts++, bytes), loop.stop.get_token());
    // The first consumer still holds its item when the second gets, as
    // two concurrently running detectors do.
    const auto held = get(first);
    benchmark::DoNotOptimize(get(second));
    benchmark::DoNotOptimize(held);
  }
  const auto consumed = static_cast<double>(2 * state.iterations());
  state.counters["wire_bytes_per_item"] =
      static_cast<double>(rx.value() + tx.value() - wire0) / consumed;
  state.SetItemsProcessed(2 * state.iterations());
  state.SetBytesProcessed(2 * state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetGetFanout)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace
}  // namespace stampede

BENCHMARK_MAIN();
