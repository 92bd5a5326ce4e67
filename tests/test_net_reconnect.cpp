/// \file test_net_reconnect.cpp
/// \brief Link-failure semantics of the networked transport: an outage
///        must degrade to local drops while the producer keeps pacing
///        against the last received summary-STP, reconnection must follow
///        bounded exponential backoff, and a resumed link must carry items
///        again — with the whole story visible in the trace (kDrop,
///        kReconnect, kNetTx/kNetRx events).
///
/// Two tiers: an in-process server bounce (runs everywhere, including the
/// TSan preset) and a real two-process test that SIGKILLs an spd_node
/// child mid-stream and respawns it on the same port.
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/remote_channel.hpp"
#include "runtime/runtime.hpp"

extern char** environ;

namespace stampede::net {
namespace {

constexpr Nanos kBackoffInitial = millis(5);
constexpr Nanos kBackoffMax = millis(50);

/// Sync (window-off) transport: these suites pin the classic one-ack-per-put
/// semantics — put() returns the stored/closed verdict of *this* item, and a
/// drop is visible on the very call that hit the outage. The pipelined
/// window gets its own suites below (PipelinedReconnect).
TransportConfig fast_transport(std::uint16_t port) {
  return {.port = port,
          .connect_timeout = millis(200),
          .io_timeout = millis(500),
          .backoff_initial = kBackoffInitial,
          .backoff_max = kBackoffMax,
          .put_window = 0};
}

/// Pipelined transport: bounded async window + coalesced acks. Same fast
/// failure tuning as fast_transport so outages stay quick to detect.
TransportConfig pipelined_transport(std::uint16_t port, std::size_t window = 8) {
  TransportConfig cfg = fast_transport(port);
  cfg.put_window = window;
  return cfg;
}

std::shared_ptr<Item> make_item(Runtime& rt, Timestamp ts, std::size_t bytes = 128) {
  return std::make_shared<Item>(rt.context(), ts, bytes, /*producer=*/100,
                                /*cluster_node=*/0, std::vector<ItemId>{}, Nanos{0});
}

/// Counts trace events of one type, optionally restricted to one node.
std::vector<stats::Event> events_of(const stats::Trace& trace, stats::EventType type,
                                    NodeId node = kNoNode) {
  std::vector<stats::Event> out;
  for (const auto& e : trace.events) {
    if (e.type == type && (node == kNoNode || e.node == node)) out.push_back(e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// In-process server bounce (TSan-covered tier)
// ---------------------------------------------------------------------------

TEST(NetReconnect, OutageDropsLocallyThenResumes) {
  // ARU on: the summary-STP fold is the payload under test here.
  RuntimeConfig cfg;
  cfg.aru.mode = aru::Mode::kMin;
  Runtime rt(std::move(cfg));
  Channel& ch = rt.add_channel({.name = "frames"});
  auto server = std::make_unique<ChannelServer>(
      rt, std::vector<ServedChannel>{{.channel = &ch, .remote_producers = 1,
                                      .remote_consumers = 1}});
  server->start();
  const std::uint16_t port = server->port();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(port),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  // Healthy link: a put stores, and once a consumer's summary-STP has been
  // folded into the channel, the PutAck carries it back as a known summary.
  auto res = proxy.put(make_item(rt, 0), stop.get_token());
  EXPECT_TRUE(res.stored);
  EXPECT_FALSE(res.dropped);

  auto got = proxy.get_latest(/*consumer_summary=*/millis(7), kNoTimestamp,
                              stop.get_token());
  ASSERT_NE(got.item, nullptr);
  EXPECT_EQ(got.item->ts(), 0);

  res = proxy.put(make_item(rt, 1), stop.get_token());
  EXPECT_TRUE(res.stored);
  ASSERT_TRUE(aru::known(res.summary));
  const Nanos held = proxy.summary();
  EXPECT_TRUE(aru::known(held));

  // Outage: the server dies. Puts must fail fast as local drops — never
  // block — and keep returning the held summary-STP so the source's pacing
  // holds its period instead of free-running.
  server->stop();
  server.reset();

  const std::int64_t drops_before = proxy.drops();
  for (Timestamp ts = 2; ts < 8; ++ts) {
    res = proxy.put(make_item(rt, ts), stop.get_token());
    EXPECT_FALSE(res.stored);
    EXPECT_TRUE(res.dropped);
    EXPECT_EQ(res.summary, held) << "held summary-STP must survive the outage";
    rt.clock().sleep_for(millis(5));
  }
  EXPECT_GE(proxy.drops() - drops_before, 6);
  // Note: connected() may still report true here — the idle get link only
  // observes the outage at its next RPC (the transport is caller-driven,
  // with no background liveness thread). The put link's state is what the
  // drops above assert.

  // Recovery: a fresh server binds the same port; puts must start storing
  // again within the (bounded) backoff schedule.
  auto server2 = std::make_unique<ChannelServer>(
      rt, std::vector<ServedChannel>{{.channel = &ch, .remote_producers = 1,
                                      .remote_consumers = 1}},
      ServerConfig{.port = port});
  server2->start();

  bool resumed = false;
  const Nanos deadline = rt.clock().now() + seconds(10);
  Timestamp ts = 100;
  while (rt.clock().now() < deadline) {
    res = proxy.put(make_item(rt, ts++), stop.get_token());
    if (res.stored) {
      resumed = true;
      break;
    }
    rt.clock().sleep_for(millis(10));
  }
  EXPECT_TRUE(resumed) << "puts never resumed after the server came back";
  EXPECT_GE(proxy.reconnects(), 1);

  server2->stop();
  rt.stop();

  // The trace must tell the whole story.
  const stats::Trace trace = rt.take_trace();
  const auto drops = events_of(trace, stats::EventType::kDrop, proxy.id());
  ASSERT_GE(drops.size(), 6u);
  for (const auto& e : drops) EXPECT_EQ(e.a, 1) << "link-down drops are tagged a=1";

  const auto reconnects = events_of(trace, stats::EventType::kReconnect);
  ASSERT_GE(reconnects.size(), 1u);
  for (const auto& e : reconnects) {
    EXPECT_GE(e.a, 1) << "reconnect must report >=1 failed attempt";
    EXPECT_GE(e.b, 0);
    EXPECT_LE(e.b, kBackoffMax.count()) << "backoff must stay bounded";
  }

  EXPECT_FALSE(events_of(trace, stats::EventType::kNetTx).empty());
  EXPECT_FALSE(events_of(trace, stats::EventType::kNetRx).empty());
}

TEST(NetReconnect, ServerSideTelemetryCountsReattachAndTracksSummaryStp) {
  RuntimeConfig cfg;
  cfg.aru.mode = aru::Mode::kMin;
  Runtime rt(std::move(cfg));
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, std::vector<ServedChannel>{{.channel = &ch,
                                                       .remote_producers = 1,
                                                       .remote_consumers = 1}});
  server.start();

  // Fetching with the same (name, labels) yields the series the server
  // registered at construction.
  const telemetry::Registry::Labels labels = {{"server", "frames"}};
  const telemetry::Counter& connections = rt.metrics().counter(
      "aru_net_server_connections_total", "", labels);
  const telemetry::Counter& reconnects =
      rt.metrics().counter("aru_net_reconnects_total", "", labels);
  const telemetry::Gauge& producer_stp = rt.metrics().gauge(
      "aru_task_summary_stp_ns", "", {{"task", "frames:remote_producer0"}});

  // The server increments on its connection threads; an RPC round-trip
  // means the increment was made, but reads here race the relaxed stores,
  // so assertions on freshly-bumped counters poll up to a deadline.
  auto reaches = [&](const telemetry::Counter& c, std::uint64_t want) {
    const Nanos deadline = rt.clock().now() + seconds(5);
    while (c.value() < want && rt.clock().now() < deadline) {
      rt.clock().sleep_for(millis(1));
    }
    return c.value() >= want;
  };

  std::stop_source stop;
  {
    RemoteChannel proxy(rt, {.name = "frames",
                             .transport = fast_transport(server.port()),
                             .producer_key = 0,
                             .consumer_key = 0});
    EXPECT_TRUE(proxy.put(make_item(rt, 0), stop.get_token()).stored);
    // No consumer summary folded yet: the per-producer gauge holds the
    // 0 = unknown sentinel.
    EXPECT_EQ(producer_stp.value(), 0);
    // Fold a consumer summary, then put again so the ack (and the gauge)
    // carry a known summary-STP back to this producer slot.
    auto got = proxy.get_latest(/*consumer_summary=*/millis(7), kNoTimestamp,
                                stop.get_token());
    ASSERT_NE(got.item, nullptr);
    EXPECT_TRUE(proxy.put(make_item(rt, 1), stop.get_token()).stored);
    EXPECT_GT(producer_stp.value(), 0);
    // First bind of each slot (one put link, one get link): connections,
    // not recoveries.
    EXPECT_TRUE(reaches(connections, 2));
    EXPECT_EQ(reconnects.value(), 0u);
  }

  // A fresh proxy claiming the same producer slot is the server-side view
  // of a link recovery: the slot was bound once already.
  {
    RemoteChannel proxy2(rt, {.name = "frames",
                              .transport = fast_transport(server.port()),
                              .producer_key = 0});
    EXPECT_TRUE(proxy2.put(make_item(rt, 2), stop.get_token()).stored);
    EXPECT_TRUE(reaches(connections, 3));
    EXPECT_TRUE(reaches(reconnects, 1));
  }

  server.stop();
  rt.stop();
}

TEST(NetReconnect, BackoffIsBoundedUnderPersistentOutage) {
  // No server at all: every put must fail fast (bounded by io/connect
  // timeouts, not hanging), and the proxy stays in the dropped state.
  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(1),  // reserved port: refused
                           .producer_key = 0});
  std::stop_source stop;

  const Nanos t0 = rt.clock().now();
  for (Timestamp ts = 0; ts < 5; ++ts) {
    const auto res = proxy.put(make_item(rt, ts), stop.get_token());
    EXPECT_TRUE(res.dropped);
    EXPECT_FALSE(aru::known(res.summary)) << "no summary was ever received";
  }
  // 5 failed puts must complete well within a few connect timeouts: the
  // backoff gate means most attempts don't even touch the socket.
  EXPECT_LT((rt.clock().now() - t0).count(), seconds(5).count());
  EXPECT_EQ(proxy.reconnects(), 0);
  EXPECT_GE(proxy.drops(), 5);
}

TEST(NetReconnect, ClosedChannelPropagatesToRemoteProducerAndConsumer) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(server.port()),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  ASSERT_TRUE(proxy.put(make_item(rt, 0), stop.get_token()).stored);
  ch.close();

  const auto res = proxy.put(make_item(rt, 1), stop.get_token());
  EXPECT_FALSE(res.stored);
  EXPECT_FALSE(res.dropped) << "a closed channel is not a link failure";
  EXPECT_TRUE(res.closed);

  // The consumer drains what is buffered, then sees the close.
  auto got = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  ASSERT_NE(got.item, nullptr);
  got = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  EXPECT_EQ(got.item, nullptr);

  server.stop();
}

TEST(NetReconnect, HelloRejectsUnknownChannelAndBadSlots) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1}});
  server.start();
  std::stop_source stop;

  // Unknown channel name: the transport treats the rejection as a dead
  // link, so the put degrades to a local drop instead of wedging.
  RemoteChannel wrong_name(rt, {.name = "nope",
                                .transport = fast_transport(server.port()),
                                .producer_key = 0});
  EXPECT_TRUE(wrong_name.put(make_item(rt, 0), stop.get_token()).dropped);

  // Out-of-range producer slot.
  RemoteChannel bad_slot(rt, {.name = "frames",
                              .transport = fast_transport(server.port()),
                              .producer_key = 7});
  EXPECT_TRUE(bad_slot.put(make_item(rt, 0), stop.get_token()).dropped);

  server.stop();
}

TEST(NetReconnect, StopTokenUnparksGetAgainstIdleServer) {
  // A live-but-idle server heartbeats forever, and every heartbeat resets
  // the client's per-frame io_timeout — so only the in-RPC stop check lets
  // a parked get_latest observe shutdown. On regression this test hangs
  // (caught by the CI test timeout) rather than failing an assertion.
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_consumers = 1}});
  server.start();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(server.port()),
                           .consumer_key = 0});
  std::stop_source stop;

  RemoteEndpoint::GetResult res;
  std::thread consumer([&] {
    res = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  });
  rt.clock().sleep_for(millis(300));  // park through several heartbeats
  stop.request_stop();
  consumer.join();
  EXPECT_EQ(res.item, nullptr);
  EXPECT_GE(res.blocked.count(), millis(200).count())
      << "the get must actually have parked before stop fired";
  server.stop();
}

TEST(NetReconnect, BackpressuredPutHeartbeatsThroughTheWait) {
  // A put parked on a full bounded channel must not silence the link: the
  // server polls try_put and keeps heartbeating while it waits, so the
  // client rides out a wait far longer than io_timeout instead of timing
  // out into a spurious drop + reconnect for an item the server stores.
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames", .capacity = 2});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(server.port()),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  ASSERT_TRUE(proxy.put(make_item(rt, 0), stop.get_token()).stored);
  ASSERT_TRUE(proxy.put(make_item(rt, 1), stop.get_token()).stored);

  RemoteEndpoint::PutResult res;
  std::thread producer([&] { res = proxy.put(make_item(rt, 2), stop.get_token()); });
  // Hold the channel full for well over io_timeout (500ms) before freeing
  // a slot: only server heartbeats can keep the put RPC alive that long.
  rt.clock().sleep_for(millis(1200));
  auto got = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  ASSERT_NE(got.item, nullptr);  // consumes ts=1; collecting ts=0 frees a slot
  producer.join();

  EXPECT_TRUE(res.stored);
  EXPECT_FALSE(res.dropped);
  EXPECT_EQ(proxy.drops(), 0);
  EXPECT_EQ(proxy.reconnects(), 0);
  server.stop();
}

TEST(NetReconnect, OverlongChannelNameIsRejectedAtConstruction) {
  // A name over kMaxNameBytes would encode into a Hello every peer rejects
  // as malformed — a connect loop with no diagnostic. Both endpoints
  // refuse to be built with one instead.
  Runtime rt;
  const std::string long_name(kMaxNameBytes + 1, 'n');
  EXPECT_THROW((RemoteChannel(rt, {.name = long_name, .producer_key = 0})),
               std::invalid_argument);
  Channel& ch = rt.add_channel({.name = long_name});
  EXPECT_THROW((ChannelServer(rt, {{.channel = &ch, .remote_producers = 1}})),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pipelined window (wire v3): async puts, coalesced acks, dup suppression
// ---------------------------------------------------------------------------

TEST(PipelinedReconnect, WindowedPutsDeliverEverythingOnDrain) {
  RuntimeConfig cfg;
  cfg.aru.mode = aru::Mode::kMin;
  Runtime rt(std::move(cfg));
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = pipelined_transport(server.port()),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  // A burst far larger than the window: puts return as soon as they are
  // queued, acks settle them in coalesced batches, and drain_puts blocks
  // until the whole tail is acked. Nothing may be lost on a healthy link.
  constexpr Timestamp kCount = 50;
  for (Timestamp ts = 0; ts < kCount; ++ts) {
    const auto res = proxy.put(make_item(rt, ts), stop.get_token());
    EXPECT_TRUE(res.stored);
    EXPECT_FALSE(res.dropped);
  }
  EXPECT_TRUE(proxy.drain_puts(stop.get_token()));
  EXPECT_EQ(ch.size(), static_cast<std::size_t>(kCount));
  EXPECT_EQ(proxy.drops(), 0);

  // The summary-STP feedback still rides the (now coalesced) acks: fold a
  // consumer summary, then put+drain until the proxy has seen it back.
  auto got = proxy.get_latest(/*consumer_summary=*/millis(7), kNoTimestamp,
                              stop.get_token());
  ASSERT_NE(got.item, nullptr);
  const Nanos deadline = rt.clock().now() + seconds(5);
  Timestamp ts = kCount;
  while (!aru::known(proxy.summary()) && rt.clock().now() < deadline) {
    proxy.put(make_item(rt, ts++), stop.get_token());
    proxy.drain_puts(stop.get_token());
  }
  EXPECT_TRUE(aru::known(proxy.summary()))
      << "coalesced acks must carry the summary-STP back to the producer";

  server.stop();
  rt.stop();

  // Batching and coalescing must be visible in the trace: the client
  // records one kNetTx per *flush* (not per put) and one kNetRx per
  // coalesced ack — both must come in well under one-per-put (the sync
  // protocol does exactly kCount of each).
  const stats::Trace trace = rt.take_trace();
  std::size_t put_flush_tx = 0;
  std::size_t ack_rx = 0;
  for (const auto& e : events_of(trace, stats::EventType::kNetTx, proxy.id())) {
    if (e.b == static_cast<std::int64_t>(MsgType::kPut)) ++put_flush_tx;
  }
  for (const auto& e : events_of(trace, stats::EventType::kNetRx, proxy.id())) {
    if (e.b == static_cast<std::int64_t>(MsgType::kPutAck)) ++ack_rx;
  }
  EXPECT_GE(put_flush_tx, 1u);
  EXPECT_LT(put_flush_tx, static_cast<std::size_t>(kCount))
      << "puts must batch into scatter/gather flushes, not one send per put";
  EXPECT_GE(ack_rx, 1u);
  EXPECT_LT(ack_rx, static_cast<std::size_t>(kCount))
      << "acks must be coalesced, not one per put";
}

TEST(PipelinedReconnect, BackpressureThrottlesTheWindowWithoutLoss) {
  // A bounded channel with no consumer caps the advertised credits; the
  // producer's effective window shrinks to the channel's slack and the
  // excess puts ride the server's try_put poll. Everything is eventually
  // stored exactly once once a consumer drains.
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames", .capacity = 4});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = pipelined_transport(server.port()),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  bool drained = false;
  std::thread producer([&] {
    for (Timestamp ts = 0; ts < 12; ++ts) {
      proxy.put(make_item(rt, ts), stop.get_token());
    }
    drained = proxy.drain_puts(stop.get_token());
  });

  // Drain from the other side so the windowed producer can finish. Each
  // fetched timestamp must be strictly newer than the last — duplicates
  // or reordering across the backpressured window would show up here.
  // The consumer runs on its own stop token: a get against a drained
  // channel parks server-side, so the final get is unparked by the stop
  // request once the producer is done.
  std::stop_source consumer_stop;
  std::atomic<int> fetched{0};
  std::thread consumer([&] {
    Timestamp last_ts = -1;
    while (!consumer_stop.stop_requested()) {
      auto got = proxy.get_latest(aru::kUnknownStp, kNoTimestamp,
                                  consumer_stop.get_token());
      if (got.item == nullptr) break;  // stop requested mid-park
      EXPECT_GT(got.item->ts(), last_ts) << "duplicate or reordered timestamp";
      last_ts = got.item->ts();
      fetched.fetch_add(1, std::memory_order_relaxed);
      rt.clock().sleep_for(millis(2));
    }
  });

  producer.join();
  consumer_stop.request_stop();
  consumer.join();

  EXPECT_TRUE(drained);
  EXPECT_GE(fetched.load(), 1);
  EXPECT_EQ(proxy.drops(), 0) << "backpressure must throttle, not drop";
  server.stop();
}

// -- raw wire tier: dup suppression needs frame-level control ---------------

FrameBuf raw_put_frame(std::uint64_t seq, Timestamp ts) {
  PutMsg m{.seq = seq};
  m.item.ts = ts;
  m.item.payload_bytes = 0;
  return encode(m);
}

bool raw_read_frame(TcpStream& s, FrameHeader& h, std::vector<std::byte>& body) {
  std::array<std::byte, kHeaderBytes> hdr;
  if (s.recv_exact(hdr, seconds(2)) != IoStatus::kOk) return false;
  if (!decode_header(hdr, h, nullptr)) return false;
  body.resize(h.body_len);
  return h.body_len == 0 || s.recv_exact(body, seconds(2)) == IoStatus::kOk;
}

/// Reads frames (skipping heartbeats) until a PutAck with cum_seq >= want.
bool raw_await_cum_ack(TcpStream& s, std::uint64_t want) {
  FrameHeader h;
  std::vector<std::byte> body;
  PutAckMsg ack;
  for (int i = 0; i < 64; ++i) {
    if (!raw_read_frame(s, h, body)) return false;
    if (h.type == MsgType::kHeartbeat) continue;
    if (h.type != MsgType::kPutAck) return false;
    if (!decode(std::span<const std::byte>(body), ack, nullptr)) return false;
    if (ack.cum_seq >= want) return true;
  }
  return false;
}

std::optional<TcpStream> raw_attach(std::uint16_t port, std::uint64_t session,
                                    std::uint64_t start_seq) {
  auto stream = TcpStream::connect("127.0.0.1", port, seconds(2));
  if (!stream) return std::nullopt;
  const FrameBuf hello = encode(HelloMsg{.channel = "frames",
                                         .producer_key = 0,
                                         .session = session,
                                         .start_seq = start_seq});
  if (stream->send_all(hello.span(), seconds(2)) != IoStatus::kOk) return std::nullopt;
  FrameHeader h;
  std::vector<std::byte> body;
  HelloAckMsg ack;
  if (!raw_read_frame(*stream, h, body) || h.type != MsgType::kHelloAck ||
      !decode(std::span<const std::byte>(body), ack, nullptr) || !ack.ok) {
    return std::nullopt;
  }
  return stream;
}

TEST(PipelinedReconnect, ReplayedWindowTailIsNotDuplicated) {
  // The client-side window resends its unacked tail after every reconnect;
  // when the loss was only the *ack* (the server had stored the items),
  // the per-(slot, session) watermark must swallow the replay. Speaking
  // raw wire v3 lets the test control exactly which acks "got lost".
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  // The consumer slot matters: a channel nobody will ever read retains
  // nothing, and this test counts retained items.
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  constexpr std::uint64_t kSession = 0xABCD1234;
  {
    auto s = raw_attach(server.port(), kSession, 1);
    ASSERT_TRUE(s.has_value());
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_EQ(s->send_all(raw_put_frame(seq, static_cast<Timestamp>(seq)).span(),
                            seconds(2)),
                IoStatus::kOk);
    }
    ASSERT_TRUE(raw_await_cum_ack(*s, 3));
    EXPECT_EQ(ch.size(), 3u);
  }  // drop the connection: pretend the acks for 2..3 never arrived

  {
    // Same session reattaches claiming start_seq=2 and replays 2..3: both
    // are at or below the surviving watermark, so the channel must not
    // grow — but the cumulative ack still settles them for the client.
    auto s = raw_attach(server.port(), kSession, 2);
    ASSERT_TRUE(s.has_value());
    for (std::uint64_t seq = 2; seq <= 3; ++seq) {
      ASSERT_EQ(s->send_all(raw_put_frame(seq, static_cast<Timestamp>(seq)).span(),
                            seconds(2)),
                IoStatus::kOk);
    }
    ASSERT_TRUE(raw_await_cum_ack(*s, 3));
    EXPECT_EQ(ch.size(), 3u) << "replayed puts must be suppressed, not re-stored";
  }

  {
    // A *new* session on the same slot resets the watermark: its seq=1 is
    // a genuinely new item, not a replay.
    auto s = raw_attach(server.port(), 0x5EEDF00D, 1);
    ASSERT_TRUE(s.has_value());
    ASSERT_EQ(s->send_all(raw_put_frame(1, 100).span(), seconds(2)), IoStatus::kOk);
    ASSERT_TRUE(raw_await_cum_ack(*s, 1));
    EXPECT_EQ(ch.size(), 4u);
  }

  server.stop();
}

// -- ack collection: a scripted acker controls when each ack lands ----------

/// Waits (yielding) until `pred` holds or a generous deadline passes. The
/// deadline only bounds a failing test; passing runs wait on the condition.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A raw-wire producer peer: answers one Hello, then reads each put (frame
/// and payload tail) and acks it at once with summary `summary_of(seq)` —
/// except that puts before `first_ack` wait for the cumulative ack of
/// that put. `delivered` is the highest seq whose ack sits in the
/// client's receive queue (the acker's send queue has drained), so a test
/// can put next knowing the ack is there to be collected — without a
/// sleep margin.
struct ScriptedAcker {
  static constexpr std::uint32_t kCredits = 64;

  std::optional<TcpListener> listener = TcpListener::listen("127.0.0.1", 0);
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> failed{false};
  std::jthread thread;

  explicit ScriptedAcker(std::uint64_t puts, std::uint64_t first_ack = 1) {
    if (listener) {
      thread = std::jthread([this, puts, first_ack] { failed = !serve(puts, first_ack); });
    }
  }

  static Nanos summary_of(std::uint64_t seq) {
    return millis(static_cast<std::int64_t>(seq));
  }

  bool await_delivered(std::uint64_t seq) const {
    return eventually([&] { return delivered.load() >= seq || failed.load(); }) &&
           !failed.load();
  }

 private:
  bool serve(std::uint64_t puts, std::uint64_t first_ack) {
    auto s = listener->accept(seconds(5));
    if (!s) return false;
    FrameHeader h;
    std::vector<std::byte> body;
    if (!raw_read_frame(*s, h, body) || h.type != MsgType::kHello ||
        s->send_all(encode(HelloAckMsg{.ok = true, .credits = kCredits}).span(),
                    seconds(2)) != IoStatus::kOk) {
      return false;
    }
    std::vector<std::byte> payload;
    PutMsg put;
    for (std::uint64_t seq = 1; seq <= puts; ++seq) {
      if (!raw_read_frame(*s, h, body) || h.type != MsgType::kPut ||
          !decode(std::span<const std::byte>(body), put, nullptr) || put.seq != seq) {
        return false;
      }
      payload.resize(h.payload_len);
      if (!payload.empty() && s->recv_exact(payload, seconds(2)) != IoStatus::kOk) {
        return false;
      }
      if (seq < first_ack) continue;
      const PutAckMsg ack{.stored = true,
                          .summary = summary_of(seq),
                          .cum_seq = seq,
                          .credits = kCredits};
      // A client that closes with this ack unread resets the link, and
      // its send queue never drains: that ends the script, not a failure.
      if (s->send_all(encode(ack).span(), seconds(2)) != IoStatus::kOk ||
          !eventually([&] { return s->unacked_bytes() == 0 || s->peer_hup(); })) {
        return false;
      }
      if (s->unacked_bytes() != 0) return true;
      delivered = seq;
    }
    std::array<std::byte, 1> probe;
    s->recv_exact(probe, seconds(5));  // hold the link until the client closes
    return true;
  }
};

TEST(PipelinedReconnect, AckedFramePutIsReleasedByTheNextPut) {
  // A frame-scale put stays in the window (its slab pinned) until the
  // sender reads its ack. Once that ack has arrived, the very next put
  // must collect it: the frame is freed and the put returns the summary
  // the ack carried — not after the byte cap forces a blocking read.
  ScriptedAcker acker(2);
  ASSERT_TRUE(acker.listener.has_value());
  constexpr std::size_t kFrame = std::size_t{256} << 10;
  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = pipelined_transport(acker.listener->port(), 64),
                           .producer_key = 0});
  std::stop_source stop;

  auto first = make_item(rt, 0, kFrame);
  const std::weak_ptr<Item> watch = first;
  ASSERT_TRUE(proxy.put(std::move(first), stop.get_token()).stored);
  ASSERT_TRUE(acker.await_delivered(1));
  EXPECT_FALSE(watch.expired()) << "an ack nobody has read yet keeps the frame";

  const auto res = proxy.put(make_item(rt, 1, kFrame), stop.get_token());
  EXPECT_TRUE(res.stored);
  EXPECT_TRUE(watch.expired()) << "the next put must release the acked frame";
  EXPECT_EQ(res.summary, ScriptedAcker::summary_of(1))
      << "the next put must return the summary-STP its ack carried";
  EXPECT_EQ(proxy.puts_in_flight(), 1u);
  EXPECT_FALSE(acker.failed.load());
}

TEST(PipelinedReconnect, SmallPutsKeepTheDrainCadence) {
  // 1 KiB puts never send 32 KiB between two 16-put collections, so they
  // keep that cadence — even with more than 32 KiB unacked: acks already
  // sitting in the receive queue stay unread (no poll per put) until the
  // cadence comes round. Puts 1..33 are acked by one late cumulative ack,
  // so 33 KiB are unacked when it lands; the cadence polled at puts 16
  // and 32 and polls next at put 48.
  constexpr std::uint64_t kLateAck = 33;
  constexpr std::uint64_t kNextPoll = 48;
  ScriptedAcker acker(kNextPoll, /*first_ack=*/kLateAck);
  ASSERT_TRUE(acker.listener.has_value());
  TransportConfig cfg = pipelined_transport(acker.listener->port(), 64);
  cfg.flush_interval = Nanos{0};  // every put leaves at once
  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames", .transport = cfg, .producer_key = 0});
  std::stop_source stop;
  const auto put = [&](std::uint64_t seq) {
    const auto res = proxy.put(make_item(rt, static_cast<Timestamp>(seq), 1024),
                               stop.get_token());
    EXPECT_TRUE(res.stored);
    return res.summary;
  };

  for (std::uint64_t seq = 1; seq <= kLateAck; ++seq) put(seq);
  ASSERT_TRUE(acker.await_delivered(kLateAck));
  EXPECT_FALSE(aru::known(put(kLateAck + 1)))
      << "33 KiB unacked must not make a small put poll";
  EXPECT_EQ(proxy.puts_in_flight(), kLateAck + 1);

  for (std::uint64_t seq = kLateAck + 2; seq < kNextPoll; ++seq) put(seq);
  ASSERT_TRUE(acker.await_delivered(kNextPoll - 1));
  EXPECT_EQ(put(kNextPoll), ScriptedAcker::summary_of(kNextPoll - 1))
      << "put 48 collects every arrived ack";
  EXPECT_EQ(proxy.puts_in_flight(), 1u);
  EXPECT_FALSE(acker.failed.load());
}

TEST(PipelinedReconnect, WindowBytesGaugeShowsOnePacedFrame) {
  // aru_net_put_window_bytes is the payload a put link pins. A source
  // paced slower than its acks (each put waits for the previous ack to
  // land) must read at most one frame in flight on a scrape.
  constexpr std::uint64_t kPuts = 6;
  ScriptedAcker acker(kPuts);
  ASSERT_TRUE(acker.listener.has_value());
  constexpr std::size_t kFrame = std::size_t{256} << 10;
  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = pipelined_transport(acker.listener->port(), 64),
                           .producer_key = 0});
  std::stop_source stop;
  const std::string series = "aru_net_put_window_bytes{link=\"frames/put\"} ";
  const auto scrape = [&]() -> std::int64_t {
    const std::string text = rt.metrics().render_prometheus();
    const std::size_t at = text.find(series);
    return at == std::string::npos ? -1 : std::stoll(text.substr(at + series.size()));
  };

  for (std::uint64_t seq = 1; seq <= kPuts; ++seq) {
    ASSERT_TRUE(proxy.put(make_item(rt, static_cast<Timestamp>(seq), kFrame),
                          stop.get_token())
                    .stored);
    const std::int64_t pinned = scrape();
    EXPECT_GE(pinned, 0) << "the gauge must be exported";
    EXPECT_LE(pinned, static_cast<std::int64_t>(kFrame)) << "after put " << seq;
    ASSERT_TRUE(acker.await_delivered(seq));
  }
  EXPECT_EQ(scrape(), static_cast<std::int64_t>(kFrame));
  EXPECT_FALSE(acker.failed.load());
}

// ---------------------------------------------------------------------------
// Two-process tier: SIGKILL a real spd_node child mid-stream
// ---------------------------------------------------------------------------

/// A spawned spd_node child whose stdout is scraped for the bound port.
struct SpdNodeProc {
  pid_t pid = -1;
  std::uint16_t port = 0;

  static SpdNodeProc spawn(const std::vector<std::string>& extra_args) {
    SpdNodeProc proc;
    int pipefd[2] = {-1, -1};
    if (::pipe(pipefd) != 0) return proc;

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, pipefd[0]);
    posix_spawn_file_actions_addclose(&actions, pipefd[1]);

    std::vector<std::string> args = {SPD_NODE_PATH, "channels=frames:1:1",
                                     "seconds=60", "quiet=true"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const int rc =
        ::posix_spawn(&proc.pid, SPD_NODE_PATH, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipefd[1]);
    if (rc != 0) {
      ::close(pipefd[0]);
      proc.pid = -1;
      return proc;
    }

    // Scrape "spd_node: listening on <port>" from the child's stdout.
    std::string line;
    char c = 0;
    while (line.find('\n') == std::string::npos && line.size() < 256) {
      const ssize_t n = ::read(pipefd[0], &c, 1);
      if (n <= 0) break;
      line.push_back(c);
    }
    ::close(pipefd[0]);
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "spd_node: listening on %u", &port) == 1) {
      proc.port = static_cast<std::uint16_t>(port);
    }
    return proc;
  }

  void kill_hard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      pid = -1;
    }
  }

  ~SpdNodeProc() { kill_hard(); }
};

TEST(NetReconnect, SurvivesServerProcessKillAndRestart) {
  auto node = SpdNodeProc::spawn({"port=0"});
  ASSERT_GT(node.pid, 0) << "failed to spawn " << SPD_NODE_PATH;
  ASSERT_NE(node.port, 0) << "could not scrape the spd_node port";

  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(node.port),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  // Stream a few items into the remote process; fetch one back so the
  // remote channel folds our consumer summary-STP and the acks carry it.
  ASSERT_TRUE(proxy.put(make_item(rt, 0), stop.get_token()).stored);
  auto got = proxy.get_latest(millis(9), kNoTimestamp, stop.get_token());
  ASSERT_NE(got.item, nullptr);
  auto res = proxy.put(make_item(rt, 1), stop.get_token());
  ASSERT_TRUE(res.stored);
  ASSERT_TRUE(aru::known(res.summary));
  const Nanos held = proxy.summary();

  // SIGKILL the server process mid-stream: no goodbye, no FIN from the
  // application — the raw TCP teardown is all the client sees.
  const std::uint16_t port = node.port;
  node.kill_hard();

  std::int64_t outage_drops = 0;
  for (Timestamp ts = 2; ts < 10; ++ts) {
    res = proxy.put(make_item(rt, ts), stop.get_token());
    if (res.dropped) {
      ++outage_drops;
      EXPECT_EQ(res.summary, held);
    }
    rt.clock().sleep_for(millis(5));
  }
  EXPECT_GE(outage_drops, 5) << "puts must degrade to drops after SIGKILL";

  // Restart on the same port; the proxy must reattach and resume storing.
  auto node2 = SpdNodeProc::spawn({"port=" + std::to_string(port)});
  ASSERT_GT(node2.pid, 0);
  ASSERT_EQ(node2.port, port) << "restarted spd_node could not rebind the port";

  bool resumed = false;
  const Nanos deadline = rt.clock().now() + seconds(10);
  Timestamp ts = 100;
  while (rt.clock().now() < deadline) {
    res = proxy.put(make_item(rt, ts++), stop.get_token());
    if (res.stored) {
      resumed = true;
      break;
    }
    rt.clock().sleep_for(millis(10));
  }
  EXPECT_TRUE(resumed);
  EXPECT_GE(proxy.reconnects(), 1);

  rt.stop();
  const stats::Trace trace = rt.take_trace();
  const auto reconnects = events_of(trace, stats::EventType::kReconnect);
  ASSERT_GE(reconnects.size(), 1u);
  EXPECT_GE(reconnects.front().a, 1);
  EXPECT_LE(reconnects.front().b, kBackoffMax.count());
  EXPECT_GE(events_of(trace, stats::EventType::kDrop, proxy.id()).size(),
            static_cast<std::size_t>(outage_drops));
}

TEST(PipelinedReconnect, SurvivesServerKillMidWindowAndReconverges) {
  // SIGKILL the server with a window of puts in flight: no goodbye, the
  // unacked tail is mid-air. After respawn the proxy must reattach, replay
  // the tail into the fresh process, and resume — with the sink seeing
  // strictly increasing timestamps (no duplicates, no reordering) and the
  // summary-STP feedback reconverging over the coalesced acks.
  auto node = SpdNodeProc::spawn({"port=0"});
  ASSERT_GT(node.pid, 0) << "failed to spawn " << SPD_NODE_PATH;
  ASSERT_NE(node.port, 0) << "could not scrape the spd_node port";

  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = pipelined_transport(node.port),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  // Stream a burst and confirm delivery end to end.
  for (Timestamp ts = 0; ts < 10; ++ts) {
    proxy.put(make_item(rt, ts), stop.get_token());
  }
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  auto got = proxy.get_latest(millis(9), kNoTimestamp, stop.get_token());
  ASSERT_NE(got.item, nullptr);

  // Kill mid-window: queue fresh puts and SIGKILL before draining them.
  const std::uint16_t port = node.port;
  for (Timestamp ts = 10; ts < 15; ++ts) {
    proxy.put(make_item(rt, ts), stop.get_token());
  }
  node.kill_hard();

  // The outage must degrade to fail-fast local drops once detected.
  std::int64_t outage_drops = 0;
  for (Timestamp ts = 15; ts < 30; ++ts) {
    if (proxy.put(make_item(rt, ts), stop.get_token()).dropped) ++outage_drops;
    rt.clock().sleep_for(millis(5));
  }
  EXPECT_GE(outage_drops, 5) << "pipelined puts must degrade to drops after SIGKILL";

  // Respawn on the same port: the same transport session reattaches,
  // replays its unacked tail, and new puts store again.
  auto node2 = SpdNodeProc::spawn({"port=" + std::to_string(port)});
  ASSERT_GT(node2.pid, 0);
  ASSERT_EQ(node2.port, port);

  bool resumed = false;
  const Nanos deadline = rt.clock().now() + seconds(10);
  Timestamp ts = 100;
  while (rt.clock().now() < deadline) {
    const auto res = proxy.put(make_item(rt, ts++), stop.get_token());
    if (res.stored && proxy.drain_puts(stop.get_token())) {
      resumed = true;
      break;
    }
    rt.clock().sleep_for(millis(10));
  }
  ASSERT_TRUE(resumed) << "pipelined puts never resumed after respawn";
  EXPECT_GE(proxy.reconnects(), 1);

  // No duplicate or reordered timestamps at the sink: drain whatever the
  // fresh server holds (replayed tail + post-respawn puts) and require the
  // fetched series to be strictly increasing.
  Timestamp last_ts = -1;
  int fetched = 0;
  for (int i = 0; i < 50; ++i) {
    got = proxy.get_latest(millis(9), kNoTimestamp, stop.get_token());
    if (got.item == nullptr) break;
    EXPECT_GT(got.item->ts(), last_ts) << "duplicate or reordered timestamp after respawn";
    last_ts = got.item->ts();
    ++fetched;
    // keep the stream warm so the next get has something to skip to
    proxy.put(make_item(rt, ts++), stop.get_token());
    proxy.drain_puts(stop.get_token());
  }
  EXPECT_GE(fetched, 1);

  // Pacing reconverges: the consumer summary folded by the gets above must
  // come back over a coalesced ack as a known summary-STP.
  const Nanos conv_deadline = rt.clock().now() + seconds(5);
  while (!aru::known(proxy.summary()) && rt.clock().now() < conv_deadline) {
    proxy.put(make_item(rt, ts++), stop.get_token());
    proxy.drain_puts(stop.get_token());
    rt.clock().sleep_for(millis(5));
  }
  EXPECT_TRUE(aru::known(proxy.summary()))
      << "summary-STP pacing must reconverge after the respawn";
}

}  // namespace
}  // namespace stampede::net
