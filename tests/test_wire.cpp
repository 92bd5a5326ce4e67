/// \file test_wire.cpp
/// \brief Wire-protocol property tests: randomized encode/decode round
///        trips for every message type, boundary-size summary-STP vectors,
///        split header/envelope/payload framing invariants, and the
///        defensive-decode guarantee — a truncated or corrupt buffer must
///        return false with a diagnostic, never crash or read out of
///        bounds.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compress.hpp"
#include "util/rng.hpp"

namespace stampede::net {
namespace {

// ---------------------------------------------------------------------------
// Random message generators
// ---------------------------------------------------------------------------

std::string random_name(Xoshiro256& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len + 1);
  std::string s(len, '\0');
  for (auto& c : s) c = static_cast<char>(rng.below(256));
  return s;
}

std::vector<std::byte> random_bytes(Xoshiro256& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len + 1);
  std::vector<std::byte> p(len);
  for (auto& b : p) b = static_cast<std::byte>(rng.below(256));
  return p;
}

std::vector<Nanos> random_stp(Xoshiro256& rng, std::size_t slots) {
  std::vector<Nanos> v(slots);
  for (auto& n : v) {
    // Mix known values, unknown (0) slots, and negative garbage that a
    // buggy peer could send — the codec must carry all of them verbatim.
    const auto pick = rng.below(4);
    n = pick == 0 ? aru::kUnknownStp
                  : Nanos{static_cast<std::int64_t>(rng.next()) >> (pick == 1 ? 32 : 8)};
  }
  return v;
}

WireItem random_item(Xoshiro256& rng, std::size_t max_payload = 1 << 20) {
  WireItem item;
  item.ts = static_cast<Timestamp>(rng.next() >> 8);
  item.origin_id = rng.next();
  item.produce_cost_ns = static_cast<std::int64_t>(rng.next() >> 16);
  const std::size_t n_attrs = rng.below(5);
  for (std::size_t i = 0; i < n_attrs; ++i) {
    item.attrs.emplace_back(static_cast<std::uint32_t>(rng.next()),
                            static_cast<std::int64_t>(rng.next()));
  }
  item.payload_bytes = static_cast<std::uint32_t>(rng.below(max_payload + 1));
  return item;
}

/// The payload tail a frame's header must announce for a given message.
std::uint32_t payload_len_of(const PutMsg& m) { return m.item.payload_bytes; }
std::uint32_t payload_len_of(const GetReplyMsg& m) {
  return m.has_item && !m.reuse ? m.item.payload_bytes : 0;
}
template <typename Msg>
std::uint32_t payload_len_of(const Msg&) {
  return 0;
}

/// Splits a frame into (header, envelope) and checks the header —
/// including that the announced payload tail matches the message.
std::span<const std::byte> body_of(const FrameBuf& frame, MsgType expect,
                                   std::uint32_t expect_payload_len) {
  FrameHeader h;
  std::string err;
  EXPECT_GE(frame.len, kHeaderBytes);
  EXPECT_TRUE(decode_header(frame.span().first(kHeaderBytes), h, &err)) << err;
  EXPECT_EQ(h.type, expect);
  EXPECT_EQ(h.body_len, frame.len - kHeaderBytes);
  EXPECT_EQ(h.payload_len, expect_payload_len);
  return frame.span().subspan(kHeaderBytes);
}

template <typename Msg>
void expect_roundtrip(const Msg& in, MsgType type) {
  const FrameBuf frame = encode(in);
  Msg out;
  std::string err;
  ASSERT_TRUE(decode(body_of(frame, type, payload_len_of(in)), out, &err)) << err;
  EXPECT_EQ(in, out);
}

/// Every prefix of a valid body must decode to false — never crash, throw,
/// or succeed (the codec rejects trailing truncation as much as a short
/// length field).
template <typename Msg>
void expect_truncation_safe(const FrameBuf& frame) {
  const auto body = frame.span().subspan(kHeaderBytes);
  for (std::size_t n = 0; n < body.size(); ++n) {
    Msg out;
    std::string err;
    EXPECT_FALSE(decode(body.first(n), out, &err))
        << "decode of a " << n << "/" << body.size() << " byte prefix succeeded";
    EXPECT_FALSE(err.empty());
  }
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(Wire, HelloRoundTripRandomized) {
  Xoshiro256 rng(0xA11CE);
  for (int i = 0; i < 200; ++i) {
    expect_roundtrip(HelloMsg{.channel = random_name(rng, kMaxNameBytes),
                              .producer_key = static_cast<std::int32_t>(rng.next()),
                              .consumer_key = static_cast<std::int32_t>(rng.next()),
                              .session = rng.next(),
                              .start_seq = rng.next()},
                     MsgType::kHello);
  }
}

TEST(Wire, HelloAckRoundTripRandomized) {
  Xoshiro256 rng(0xB0B);
  for (int i = 0; i < 200; ++i) {
    expect_roundtrip(HelloAckMsg{.ok = rng.below(2) == 1,
                                 .message = random_name(rng, kMaxNameBytes),
                                 .credits = static_cast<std::uint32_t>(rng.next()),
                                 .server_epoch = rng.next()},
                     MsgType::kHelloAck);
  }
}

TEST(Wire, PutRoundTripRandomized) {
  Xoshiro256 rng(0xCAFE);
  for (int i = 0; i < 100; ++i) {
    expect_roundtrip(PutMsg{.seq = rng.next(),
                            .item = random_item(rng),
                            .stp = random_stp(rng, rng.below(kMaxStpSlots + 1))},
                     MsgType::kPut);
  }
}

TEST(Wire, PutAckRoundTripRandomized) {
  Xoshiro256 rng(0xDEAD);
  for (int i = 0; i < 200; ++i) {
    expect_roundtrip(PutAckMsg{.stored = rng.below(2) == 1,
                               .closed = rng.below(2) == 1,
                               .summary = Nanos{static_cast<std::int64_t>(rng.next() >> 8)},
                               .cum_seq = rng.next(),
                               .credits = static_cast<std::uint32_t>(rng.next()),
                               .stp = random_stp(rng, rng.below(kMaxStpSlots + 1))},
                     MsgType::kPutAck);
  }
}

TEST(Wire, GetRoundTripRandomized) {
  Xoshiro256 rng(0xF00D);
  for (int i = 0; i < 200; ++i) {
    expect_roundtrip(GetMsg{.consumer_summary = Nanos{static_cast<std::int64_t>(rng.next())},
                            .guarantee = static_cast<Timestamp>(rng.next() >> 4),
                            .have_origin = rng.below(4) == 0 ? 0 : rng.next()},
                     MsgType::kGet);
  }
}

TEST(Wire, GetReplyRoundTripRandomized) {
  Xoshiro256 rng(0xFEED);
  for (int i = 0; i < 100; ++i) {
    GetReplyMsg m{.has_item = rng.below(2) == 1,
                  .closed = rng.below(2) == 1,
                  .skipped = static_cast<std::int32_t>(rng.next() >> 40),
                  .summary = Nanos{static_cast<std::int64_t>(rng.next() >> 8)},
                  .stp = random_stp(rng, rng.below(kMaxStpSlots + 1))};
    if (m.has_item) {
      m.reuse = rng.below(2) == 1;
      m.item = random_item(rng);
    }
    expect_roundtrip(m, MsgType::kGetReply);
  }
}

TEST(Wire, ReuseReplyCarriesNoPayloadTail) {
  // A reuse reply names an item the client already holds: the envelope
  // keeps the item's size, the frame announces no payload tail.
  GetReplyMsg reply{.has_item = true, .reuse = true, .summary = millis(3)};
  reply.item.ts = 41;
  reply.item.origin_id = 0x1234;
  reply.item.payload_bytes = 1 << 20;
  const FrameBuf frame = encode(reply);
  FrameHeader h;
  ASSERT_TRUE(decode_header(frame.span().first(kHeaderBytes), h, nullptr));
  EXPECT_EQ(h.payload_len, 0u);
  EXPECT_EQ(frame.len, kHeaderBytes + h.body_len);
  GetReplyMsg out;
  std::string err;
  ASSERT_TRUE(decode(frame.span().subspan(kHeaderBytes), out, &err)) << err;
  EXPECT_TRUE(out.reuse);
  EXPECT_EQ(out.item.origin_id, 0x1234u);
  EXPECT_EQ(out.item.payload_bytes, 1u << 20);

  // The same reply without the flag carries the payload tail as before.
  reply.reuse = false;
  ASSERT_TRUE(decode_header(encode(reply).span().first(kHeaderBytes), h, nullptr));
  EXPECT_EQ(h.payload_len, 1u << 20);
}

TEST(Wire, ReuseWithoutAnItemIsRejected) {
  // Reuse names a held item, so a reply with no item cannot carry it.
  const FrameBuf frame = encode(GetReplyMsg{.has_item = false, .reuse = true});
  GetReplyMsg out;
  std::string err;
  EXPECT_FALSE(decode(frame.span().subspan(kHeaderBytes), out, &err));
  EXPECT_NE(err.find("reuse"), std::string::npos) << err;
}

TEST(Wire, HeartbeatAndCloseRoundTrip) {
  expect_roundtrip(HeartbeatMsg{.t_ns = 123456789}, MsgType::kHeartbeat);

  const FrameBuf frame = encode_close();
  FrameHeader h;
  std::string err;
  ASSERT_TRUE(decode_header(frame.span().first(kHeaderBytes), h, &err)) << err;
  EXPECT_EQ(h.type, MsgType::kClose);
  EXPECT_EQ(h.body_len, 0u);
  EXPECT_EQ(h.payload_len, 0u);
}

// -- split framing ----------------------------------------------------------

TEST(Wire, EnvelopesNeverExceedTheStackBufferCap) {
  // The zero-copy receive path banks on every conforming envelope fitting
  // kMaxEnvelopeBytes: build the largest envelope each item-bearing
  // message can produce (max-size attrs + STP vector + a max-size payload
  // announcement, which costs 4 bytes regardless of payload size).
  WireItem item;
  item.attrs.assign(kMaxAttrs, {0xFFFFFFFFu, -1});
  item.payload_bytes = static_cast<std::uint32_t>(kMaxPayloadBytes);
  const std::vector<Nanos> stp(kMaxStpSlots, Nanos{-1});

  const FrameBuf put = encode(PutMsg{.item = item, .stp = stp});
  EXPECT_LE(put.len - kHeaderBytes, kMaxEnvelopeBytes);

  GetReplyMsg reply{.has_item = true, .skipped = -1, .summary = Nanos{-1}, .stp = stp};
  reply.item = item;
  const FrameBuf get_reply = encode(reply);
  EXPECT_LE(get_reply.len - kHeaderBytes, kMaxEnvelopeBytes);
}

TEST(Wire, PayloadLenRidesTheHeaderNotTheEnvelope) {
  Xoshiro256 rng(0x9E7);
  const WireItem item = random_item(rng);
  const FrameBuf frame = encode(PutMsg{.item = item});
  FrameHeader h;
  ASSERT_TRUE(decode_header(frame.span().first(kHeaderBytes), h, nullptr));
  EXPECT_EQ(h.payload_len, item.payload_bytes);
  // The frame itself contains only header + envelope: payload travels
  // separately (scatter-gather on send, sink-directed receive).
  EXPECT_EQ(frame.len, kHeaderBytes + h.body_len);
  EXPECT_LT(frame.len, sizeof(frame.data) + 1);
}

// -- summary-STP vector boundaries ------------------------------------------

TEST(Wire, EmptyStpVectorRoundTrips) {
  expect_roundtrip(PutAckMsg{.stored = true, .summary = millis(7), .stp = {}},
                   MsgType::kPutAck);
}

TEST(Wire, MaxSizeStpVectorRoundTrips) {
  Xoshiro256 rng(0x57EF);
  expect_roundtrip(PutAckMsg{.stored = true,
                             .summary = millis(3),
                             .stp = random_stp(rng, kMaxStpSlots)},
                   MsgType::kPutAck);
  expect_roundtrip(PutMsg{.item = random_item(rng, 16),
                          .stp = random_stp(rng, kMaxStpSlots)},
                   MsgType::kPut);
}

TEST(Wire, OversizedStpVectorIsRejected) {
  // Hand-build a PutAck body whose slot count exceeds the cap: the decoder
  // must reject it before trusting the length.
  PutAckMsg m{.stored = true, .stp = std::vector<Nanos>(kMaxStpSlots, millis(1))};
  FrameBuf frame = encode(m);
  // Body layout (v3, unchanged in v4): stored u8, closed u8, summary i64, cum_seq u64,
  // credits u32, count u16, slots...
  const std::size_t count_off = kHeaderBytes + 1 + 1 + 8 + 8 + 4;
  const auto bumped = static_cast<std::uint16_t>(kMaxStpSlots + 1);
  std::memcpy(frame.data.data() + count_off, &bumped, sizeof(bumped));

  PutAckMsg out;
  std::string err;
  EXPECT_FALSE(decode(frame.span().subspan(kHeaderBytes), out, &err));
  EXPECT_NE(err.find("STP"), std::string::npos) << err;
}

// -- encode-time caps -------------------------------------------------------

TEST(Wire, EncodeEnforcesTheDecodeCaps) {
  // An over-cap field would be rejected by every peer (and a string over
  // 65535 bytes would silently truncate its u16 length prefix and
  // desynchronize the frame), so the encoder throws at the sender.
  EXPECT_THROW(encode(HelloMsg{.channel = std::string(kMaxNameBytes + 1, 'x')}),
               std::length_error);
  EXPECT_THROW(encode(HelloAckMsg{.ok = false,
                                  .message = std::string(kMaxNameBytes + 1, 'y')}),
               std::length_error);
  EXPECT_THROW(
      encode(PutAckMsg{.stp = std::vector<Nanos>(kMaxStpSlots + 1, millis(1))}),
      std::length_error);
  WireItem oversized_attrs;
  oversized_attrs.attrs.assign(kMaxAttrs + 1, {0U, 0});
  EXPECT_THROW(encode(PutMsg{.item = oversized_attrs}), std::length_error);
  WireItem oversized_payload;
  oversized_payload.payload_bytes = static_cast<std::uint32_t>(kMaxPayloadBytes) + 1;
  EXPECT_THROW(encode(PutMsg{.item = oversized_payload}), std::length_error);

  // At-cap fields still encode (and round-trip, per the tests above).
  EXPECT_NO_THROW(encode(HelloMsg{.channel = std::string(kMaxNameBytes, 'x')}));
}

// ---------------------------------------------------------------------------
// Defensive decoding
// ---------------------------------------------------------------------------

TEST(Wire, TruncatedBodiesNeverCrash) {
  Xoshiro256 rng(0x7A6);
  expect_truncation_safe<HelloMsg>(
      encode(HelloMsg{.channel = "frames",
                      .producer_key = 3,
                      .consumer_key = 1,
                      .session = 0x1122334455667788ULL,
                      .start_seq = 42}));
  expect_truncation_safe<HelloAckMsg>(encode(
      HelloAckMsg{.ok = true, .message = "no", .credits = 7, .server_epoch = 0xE90C}));
  expect_truncation_safe<PutMsg>(encode(
      PutMsg{.seq = 99, .item = random_item(rng, 64), .stp = random_stp(rng, 5)}));
  expect_truncation_safe<PutAckMsg>(encode(PutAckMsg{.stored = true,
                                                     .summary = millis(2),
                                                     .cum_seq = 99,
                                                     .credits = 5,
                                                     .stp = random_stp(rng, 3)}));
  expect_truncation_safe<GetMsg>(encode(
      GetMsg{.consumer_summary = millis(4), .guarantee = 17, .have_origin = 0x0A1}));
  GetReplyMsg reply{.has_item = true,
                    .skipped = 2,
                    .summary = millis(9),
                    .stp = random_stp(rng, 4)};
  reply.item = random_item(rng, 64);
  expect_truncation_safe<GetReplyMsg>(encode(reply));
  reply.reuse = true;
  expect_truncation_safe<GetReplyMsg>(encode(reply));
  expect_truncation_safe<HeartbeatMsg>(encode(HeartbeatMsg{.t_ns = 42}));
}

TEST(Wire, RandomGarbageNeverCrashes) {
  Xoshiro256 rng(0x6A5BA6E);
  for (int i = 0; i < 2000; ++i) {
    const auto body = random_bytes(rng, 128);
    std::string err;
    PutMsg put;
    GetReplyMsg reply;
    HelloMsg hello;
    // Any result is fine as long as nothing crashes and a failure sets a
    // diagnostic; flipping random bytes must not produce UB.
    if (!decode(body, put, &err)) {
      EXPECT_FALSE(err.empty());
    }
    if (!decode(body, reply, &err)) {
      EXPECT_FALSE(err.empty());
    }
    if (!decode(body, hello, &err)) {
      EXPECT_FALSE(err.empty());
    }
  }
}

TEST(Wire, TrailingBytesAreRejected) {
  const FrameBuf frame = encode(GetMsg{.consumer_summary = millis(1)});
  std::vector<std::byte> body(frame.span().begin() + kHeaderBytes, frame.span().end());
  body.push_back(std::byte{0});
  GetMsg out;
  std::string err;
  EXPECT_FALSE(decode(body, out, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Header validation
// ---------------------------------------------------------------------------

TEST(Wire, HeaderRejectsBadMagicVersionTypeAndLengths) {
  const FrameBuf good = encode(HeartbeatMsg{.t_ns = 1});
  std::string err;
  FrameHeader h;
  ASSERT_TRUE(decode_header(good.span().first(kHeaderBytes), h, &err));

  auto corrupt = [&](std::size_t offset, std::uint8_t value) {
    FrameBuf bad = good;
    bad.data[offset] = std::byte{value};
    FrameHeader out;
    std::string e;
    EXPECT_FALSE(decode_header(bad.span().first(kHeaderBytes), out, &e));
    EXPECT_FALSE(e.empty());
  };
  corrupt(0, 0xFF);                                      // magic
  corrupt(8, kWireVersion + 1);                          // version
  corrupt(8, kWireVersion - 1);                          // v1 peers are rejected too
  corrupt(9, 0);                                         // type below range
  corrupt(9, static_cast<std::uint8_t>(MsgType::kClose) + 1);  // type above range

  // body_len beyond the envelope cap.
  {
    FrameBuf bad = good;
    const auto huge = static_cast<std::uint32_t>(kMaxEnvelopeBytes + 1);
    std::memcpy(bad.data.data() + 4, &huge, sizeof(huge));
    FrameHeader out;
    std::string e;
    EXPECT_FALSE(decode_header(bad.span().first(kHeaderBytes), out, &e));
    EXPECT_NE(e.find("envelope"), std::string::npos) << e;
  }
  // payload_len beyond the hard cap.
  {
    FrameBuf bad = good;
    const auto huge = static_cast<std::uint32_t>(kMaxPayloadBytes + 1);
    std::memcpy(bad.data.data() + 12, &huge, sizeof(huge));
    FrameHeader out;
    std::string e;
    EXPECT_FALSE(decode_header(bad.span().first(kHeaderBytes), out, &e));
    EXPECT_NE(e.find("payload"), std::string::npos) << e;
  }
}

TEST(Wire, V3PeersAreRejectedByVersion) {
  // v4 changed the Get, GetReply and HelloAck envelopes; a v3 peer's
  // frames must fail at the header, before any envelope is parsed.
  static_assert(kWireVersion == 4);
  for (FrameBuf frame : {encode(GetMsg{.consumer_summary = millis(1)}),
                         encode(HelloAckMsg{.ok = true}), encode(GetReplyMsg{})}) {
    frame.data[8] = std::byte{3};
    FrameHeader h;
    std::string err;
    EXPECT_FALSE(decode_header(frame.span().first(kHeaderBytes), h, &err));
    EXPECT_EQ(err, "unsupported wire version");
  }
}

TEST(Wire, TypeNamesAreStable) {
  EXPECT_STREQ(to_string(MsgType::kHello), "hello");
  EXPECT_STREQ(to_string(MsgType::kPutAck), "put_ack");
  EXPECT_STREQ(to_string(MsgType::kHeartbeat), "heartbeat");
}

}  // namespace
}  // namespace stampede::net
