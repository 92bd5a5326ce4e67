/// \file test_net_share.cpp
/// \brief Replica sharing between sibling consumer proxies (wire v4): two
///        proxies of one served channel in one process fetch an item both
///        read once — one replica, one payload on the wire — while a
///        forged reuse reply or a restarted server whose item ids collide
///        with the old ones never hands back the wrong replica.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/remote_channel.hpp"
#include "runtime/runtime.hpp"

namespace stampede::net {
namespace {

constexpr std::size_t kPayload = std::size_t{64} << 10;

TransportConfig fast_transport(std::uint16_t port) {
  return {.port = port,
          .connect_timeout = millis(200),
          .io_timeout = millis(500),
          .backoff_initial = millis(5),
          .backoff_max = millis(50)};
}

std::shared_ptr<Item> make_item(Runtime& rt, Timestamp ts, std::byte fill,
                                std::size_t bytes = kPayload) {
  auto item = std::make_shared<Item>(rt.context(), ts, bytes, /*producer=*/100,
                                     /*cluster_node=*/0, std::vector<ItemId>{}, Nanos{0});
  std::fill(item->mutable_data().begin(), item->mutable_data().end(), fill);
  return item;
}

bool filled_with(const Item& item, std::byte fill) {
  const auto d = item.data();
  return std::all_of(d.begin(), d.end(), [&](std::byte b) { return b == fill; });
}

/// Two consumer proxies (slots 0 and 1) of one served channel, sharing a
/// replica slot.
struct SiblingPair {
  std::shared_ptr<ReplicaShare> share = std::make_shared<ReplicaShare>();
  RemoteChannel a;
  RemoteChannel b;

  SiblingPair(Runtime& rt, std::uint16_t port)
      : a(rt, {.name = "frames",
               .transport = fast_transport(port),
               .consumer_key = 0,
               .share = share}),
        b(rt, {.name = "frames",
               .transport = fast_transport(port),
               .consumer_key = 1,
               .share = share}) {}
};

/// Stops a get that never returns (a failing test) instead of hanging.
struct Watchdog {
  std::stop_source stop;
  std::jthread thread{[this](std::stop_token st) {
    for (int i = 0; i < 1000 && !st.stop_requested(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop.request_stop();
  }};
};

TEST(NetShare, SiblingProxiesFetchASharedItemOnce) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_consumers = 2}});
  server.start();
  Watchdog dog;
  NodeId a_id = kNoNode;
  NodeId b_id = kNoNode;
  {
    SiblingPair pair(rt, server.port());
    a_id = pair.a.id();
    b_id = pair.b.id();
    EXPECT_EQ(pair.a.share(), pair.b.share());

    // Item 0 attaches both links; neither has a live link before its first
    // get, so both fetch it.
    ch.put(make_item(rt, 0, std::byte{0x10}), dog.stop.get_token());
    auto a0 = pair.a.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
    auto b0 = pair.b.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
    ASSERT_NE(a0.item, nullptr);
    ASSERT_NE(b0.item, nullptr);
    EXPECT_NE(a0.item.get(), b0.item.get());

    // Item 1: a fetches it, b is handed a's replica.
    ch.put(make_item(rt, 1, std::byte{0x11}), dog.stop.get_token());
    auto a1 = pair.a.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
    auto b1 = pair.b.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
    ASSERT_NE(a1.item, nullptr);
    ASSERT_NE(b1.item, nullptr);
    EXPECT_EQ(a1.item->ts(), 1);
    EXPECT_EQ(b1.item.get(), a1.item.get()) << "b must reuse a's replica";
    EXPECT_TRUE(filled_with(*b1.item, std::byte{0x11}));
    EXPECT_EQ(pair.a.reconnects() + pair.b.reconnects(), 0);
  }
  server.stop();
  rt.stop();
  const stats::Trace trace = rt.take_trace();

  // Client side: one replica per item per process — two for item 0 (no
  // live link to hint on), one for item 1.
  std::map<Timestamp, int> replicas;
  std::map<ItemId, int> balance;
  for (const auto& e : trace.events) {
    if (e.type == stats::EventType::kAlloc && (e.node == a_id || e.node == b_id)) {
      ++replicas[e.ts];
      ++balance[e.item];
    }
  }
  EXPECT_EQ(replicas[0], 2);
  EXPECT_EQ(replicas[1], 1);
  for (const auto& e : trace.events) {
    if (e.type == stats::EventType::kFree && balance.contains(e.item)) --balance[e.item];
  }
  for (const auto& [item, n] : balance) EXPECT_EQ(n, 0) << "replica " << item;

  // Server side: four get replies, three of them carrying the payload.
  int replies = 0;
  int with_payload = 0;
  for (const auto& e : trace.events) {
    if (e.type != stats::EventType::kNetTx ||
        e.b != static_cast<std::int64_t>(MsgType::kGetReply)) {
      continue;
    }
    ++replies;
    if (e.a > static_cast<std::int64_t>(kPayload)) ++with_payload;
    EXPECT_LT(e.a, static_cast<std::int64_t>(kPayload + kHeaderBytes + kMaxEnvelopeBytes));
  }
  EXPECT_EQ(replies, 4);
  EXPECT_EQ(with_payload, 3) << "item 1's payload must cross the wire once";
}

TEST(NetShare, PrivateSlotNeverHits) {
  // A lone proxy offers its own last replica, but its cursor never returns
  // an item it has already seen: every get carries the payload.
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_consumers = 1}});
  server.start();
  Watchdog dog;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(server.port()),
                           .consumer_key = 0});
  ASSERT_NE(proxy.share(), nullptr);
  std::vector<std::shared_ptr<const Item>> held;
  for (Timestamp ts = 0; ts < 4; ++ts) {
    ch.put(make_item(rt, ts, std::byte{0x20}, 256), dog.stop.get_token());
    auto got = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
    ASSERT_NE(got.item, nullptr);
    EXPECT_EQ(got.item->ts(), ts);
    for (const auto& h : held) EXPECT_NE(h.get(), got.item.get());
    held.push_back(got.item);
  }
  EXPECT_EQ(proxy.reconnects(), 0);
  server.stop();
}

TEST(NetShare, AWaitingGetKeepsNoReplicaAlive) {
  // A get offers only a replica its consumer has not seen yet: one it has
  // seen can never come back, and pinning it would keep it alive for as
  // long as the get waits.
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_consumers = 2}});
  server.start();
  Watchdog dog;
  SiblingPair pair(rt, server.port());
  const auto get = [&](RemoteChannel& proxy) {
    return proxy.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
  };
  ch.put(make_item(rt, 0, std::byte{0x10}), dog.stop.get_token());
  ASSERT_NE(get(pair.a).item, nullptr);
  ASSERT_NE(get(pair.b).item, nullptr);
  ch.put(make_item(rt, 1, std::byte{0x11}), dog.stop.get_token());
  auto held = get(pair.a).item;
  ASSERT_NE(held, nullptr);
  ASSERT_EQ(get(pair.b).item.get(), held.get());
  const std::weak_ptr<const Item> replica = held;

  // a waits for item 2 while only the test holds item 1's replica.
  std::shared_ptr<const Item> next;
  std::jthread waiter([&] { next = get(pair.a).item; });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  held.reset();
  EXPECT_TRUE(replica.expired()) << "the waiting get kept a seen replica alive";
  ch.put(make_item(rt, 2, std::byte{0x12}), dog.stop.get_token());
  waiter.join();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->ts(), 2);
  server.stop();
}

// -- raw wire tier: a scripted server ----------------------------------------

bool read_frame(TcpStream& s, FrameHeader& h, std::vector<std::byte>& body) {
  std::array<std::byte, kHeaderBytes> hdr;
  if (s.recv_exact(hdr, seconds(2)) != IoStatus::kOk) return false;
  if (!decode_header(hdr, h, nullptr)) return false;
  body.resize(h.body_len);
  return h.body_len == 0 || s.recv_exact(body, seconds(2)) == IoStatus::kOk;
}

/// Reads the next Get on a connection.
bool read_get(TcpStream& s, GetMsg& get) {
  FrameHeader h;
  std::vector<std::byte> body;
  return read_frame(s, h, body) && h.type == MsgType::kGet &&
         decode(std::span<const std::byte>(body), get, nullptr);
}

/// Accepts one connection, answers its Hello and reads its first Get.
std::optional<TcpStream> accept_get(TcpListener& listener, std::uint64_t epoch,
                                    GetMsg& get) {
  auto s = listener.accept(seconds(5));
  if (!s) return std::nullopt;
  FrameHeader h;
  std::vector<std::byte> body;
  HelloMsg hello;
  if (!read_frame(*s, h, body) || h.type != MsgType::kHello ||
      !decode(std::span<const std::byte>(body), hello, nullptr)) {
    return std::nullopt;
  }
  if (s->send_all(encode(HelloAckMsg{.ok = true, .server_epoch = epoch}).span(),
                  seconds(2)) != IoStatus::kOk ||
      !read_get(*s, get)) {
    return std::nullopt;
  }
  return s;
}

/// Sends a get reply for a 16-byte item; `reuse` sends no payload tail.
bool send_reply(TcpStream& s, Timestamp ts, std::uint64_t origin, bool reuse = false) {
  GetReplyMsg reply{.has_item = true, .reuse = reuse};
  reply.item.ts = ts;
  reply.item.origin_id = origin;
  reply.item.payload_bytes = 16;
  std::array<std::byte, 16> payload;
  payload.fill(std::byte{static_cast<unsigned char>(origin)});
  const FrameBuf frame = encode(reply);
  return s.send_all(frame.span(), seconds(2)) == IoStatus::kOk &&
         (reuse || s.send_all(payload, seconds(2)) == IoStatus::kOk);
}

TEST(NetShare, ForgedReuseReplyDropsTheLinkAndReissuesTheGet) {
  // A scripted server: b attaches and fetches item 0, a fetches item 1,
  // then b's next get offers a's replica of item 1 and the server answers
  // "reuse" for an origin b never offered. b must hang up and re-issue.
  auto listener = TcpListener::listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.has_value());
  constexpr std::uint64_t kEpoch = 7;

  std::atomic<std::uint64_t> offered{0};
  std::atomic<std::uint64_t> reissue_offered{~std::uint64_t{0}};
  std::atomic<bool> forged_link_dropped{false};
  std::atomic<bool> scripted_ok{false};
  std::jthread fake([&] {
    GetMsg get;
    auto b_link = accept_get(*listener, kEpoch, get);
    if (!b_link || !send_reply(*b_link, 0, 0x0F)) return;
    auto a_link = accept_get(*listener, kEpoch, get);
    if (!a_link || !send_reply(*a_link, 1, 0x10)) return;
    if (!read_get(*b_link, get)) return;
    offered = get.have_origin;
    if (!send_reply(*b_link, 1, 0x11, /*reuse=*/true)) return;
    std::array<std::byte, 1> probe;
    forged_link_dropped = b_link->recv_exact(probe, seconds(2)) == IoStatus::kClosed;

    auto b_again = accept_get(*listener, kEpoch, get);
    if (!b_again) return;
    reissue_offered = get.have_origin;
    if (!send_reply(*b_again, 2, 0x12)) return;
    scripted_ok = true;
    b_again->recv_exact(probe, seconds(2));  // hold the links until the client closes
  });

  Watchdog dog;
  std::int64_t reconnects = -1;
  {
    Runtime rt;
    SiblingPair pair(rt, listener->port());
    const auto get = [&](RemoteChannel& proxy) {
      return proxy.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
    };
    const auto b0 = get(pair.b);
    const auto a1 = get(pair.a);
    const auto b2 = get(pair.b);
    ASSERT_NE(b0.item, nullptr);
    ASSERT_NE(a1.item, nullptr);
    ASSERT_NE(b2.item, nullptr);
    EXPECT_EQ(b2.item->ts(), 2);
    EXPECT_NE(b2.item.get(), a1.item.get());
    EXPECT_TRUE(filled_with(*b2.item, std::byte{0x12}));
    reconnects = pair.b.reconnects();
  }
  fake.join();
  EXPECT_TRUE(scripted_ok.load());
  EXPECT_EQ(offered.load(), 0x10u) << "b must offer a's replica of item 1";
  EXPECT_TRUE(forged_link_dropped.load()) << "a mismatched reuse reply must drop the link";
  EXPECT_EQ(reissue_offered.load(), 0u) << "a fresh link has no epoch to offer under";
  EXPECT_EQ(reconnects, 1);
}

TEST(NetShare, RestartedServerWithCollidingIdsIsNotReused) {
  // A restarted server numbers its items from 1 again, so the same origin
  // id can name a different item. The epoch in the HelloAck keeps a
  // replica fetched from the old instance from being offered to the new.
  Runtime rt;
  Watchdog dog;
  auto srv_rt = std::make_unique<Runtime>();
  Channel* ch = &srv_rt->add_channel({.name = "frames"});
  auto server = std::make_unique<ChannelServer>(
      *srv_rt, std::vector<ServedChannel>{{.channel = ch, .remote_consumers = 2}});
  server->start();
  const std::uint16_t port = server->port();
  const std::uint64_t old_epoch = server->epoch();
  SiblingPair live(rt, port);

  // Both links attach on item 0; then a alone fetches item 1, so the slot
  // offers it to b (which has not seen it) under the old epoch.
  ch->put(make_item(*srv_rt, 0, std::byte{0x10}), dog.stop.get_token());
  ASSERT_NE(live.a.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token()).item,
            nullptr);
  ASSERT_NE(live.b.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token()).item,
            nullptr);
  auto first = make_item(*srv_rt, 1, std::byte{0x11});
  const ItemId old_id = first->id();
  ch->put(std::move(first), dog.stop.get_token());
  auto a1 = live.a.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
  ASSERT_NE(a1.item, nullptr);
  EXPECT_EQ(a1.item->ts(), 1);

  server->stop();
  server.reset();
  srv_rt->stop();
  srv_rt.reset();

  // Same port, fresh id space: the new instance's item 1 collides with the
  // replica a still holds (same id, ts and size).
  srv_rt = std::make_unique<Runtime>();
  ch = &srv_rt->add_channel({.name = "frames"});
  server = std::make_unique<ChannelServer>(
      *srv_rt, std::vector<ServedChannel>{{.channel = ch, .remote_consumers = 2}},
      ServerConfig{.port = port});
  server->start();
  ASSERT_NE(server->epoch(), old_epoch);
  ch->put(make_item(*srv_rt, 0, std::byte{0x20}), dog.stop.get_token());
  auto second = make_item(*srv_rt, 1, std::byte{0x22});
  ASSERT_EQ(second->id(), old_id) << "precondition: the ids must collide";
  ch->put(std::move(second), dog.stop.get_token());

  auto b2 = live.b.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
  ASSERT_NE(b2.item, nullptr);
  EXPECT_EQ(b2.item->ts(), 1);
  EXPECT_NE(b2.item.get(), a1.item.get());
  EXPECT_TRUE(filled_with(*b2.item, std::byte{0x22})) << "stale replica handed back";

  // a's link was still on the old instance, so it never offered the
  // replica b just fetched; it fetches its own copy of item 1.
  auto a2 = live.a.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
  ASSERT_NE(a2.item, nullptr);
  EXPECT_TRUE(filled_with(*a2.item, std::byte{0x22}));

  // With both links on the new instance, sharing resumes under its epoch.
  ch->put(make_item(*srv_rt, 2, std::byte{0x33}), dog.stop.get_token());
  auto a3 = live.a.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
  auto b3 = live.b.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
  ASSERT_NE(a3.item, nullptr);
  EXPECT_EQ(b3.item.get(), a3.item.get());
  EXPECT_TRUE(filled_with(*b3.item, std::byte{0x33}));

  server->stop();
  srv_rt->stop();
}

TEST(NetShare, ReplicaFromAnotherServerInstanceIsNeverOffered) {
  // The slot can hold a replica from one server instance while a sibling's
  // link is already attached to another, e.g. a reply from a worker that
  // has since been restarted. Two live instances with colliding item ids
  // (two fresh Runtimes) stand in for that window: only the epoch tells
  // their id spaces apart.
  Runtime rt;
  Watchdog dog;
  Runtime old_rt;
  Runtime new_rt;
  Channel& old_ch = old_rt.add_channel({.name = "frames"});
  Channel& new_ch = new_rt.add_channel({.name = "frames"});
  ChannelServer old_server(old_rt, {{.channel = &old_ch, .remote_consumers = 1}});
  ChannelServer new_server(new_rt, {{.channel = &new_ch, .remote_consumers = 1}});
  old_server.start();
  new_server.start();
  auto share = std::make_shared<ReplicaShare>();
  RemoteChannel a(rt, {.name = "frames",
                       .transport = fast_transport(old_server.port()),
                       .consumer_key = 0,
                       .share = share});
  RemoteChannel b(rt, {.name = "frames",
                       .transport = fast_transport(new_server.port()),
                       .consumer_key = 0,
                       .share = share});
  const auto get = [&](RemoteChannel& proxy) {
    return proxy.get_latest(aru::kUnknownStp, kNoTimestamp, dog.stop.get_token());
  };

  // b attaches to the new instance on item 0.
  new_ch.put(make_item(new_rt, 0, std::byte{0x20}), dog.stop.get_token());
  ASSERT_NE(get(b).item, nullptr);
  // a fetches item 1 from the old instance; it is now the slot's replica.
  old_ch.put(make_item(old_rt, 0, std::byte{0x10}), dog.stop.get_token());
  auto old_item = make_item(old_rt, 1, std::byte{0x11});
  const ItemId old_id = old_item->id();
  old_ch.put(std::move(old_item), dog.stop.get_token());
  const auto a1 = get(a);
  ASSERT_NE(a1.item, nullptr);
  EXPECT_EQ(a1.item->ts(), 1);

  // The new instance's item 1 has the same id, ts and size.
  auto new_item = make_item(new_rt, 1, std::byte{0x22});
  ASSERT_EQ(new_item->id(), old_id) << "precondition: the ids must collide";
  new_ch.put(std::move(new_item), dog.stop.get_token());
  const auto b1 = get(b);
  ASSERT_NE(b1.item, nullptr);
  EXPECT_EQ(b1.item->ts(), 1);
  EXPECT_NE(b1.item.get(), a1.item.get());
  EXPECT_TRUE(filled_with(*b1.item, std::byte{0x22})) << "replica of another instance";
  EXPECT_EQ(b.reconnects(), 0);

  old_server.stop();
  new_server.stop();
}

}  // namespace
}  // namespace stampede::net
