/// \file wire.hpp
/// \brief Length-prefixed wire protocol for remote channels.
///
/// Every message travels as one *frame*: a fixed header, a small
/// *envelope* body (per-type layout below), and — for item-bearing
/// messages — the raw payload bytes appended verbatim after the
/// envelope. Splitting payload out of the envelope is what makes the
/// zero-copy path work: the sender emits header+envelope from a stack
/// buffer and the payload straight from the item's pooled slab
/// (scatter-gather `sendmsg`), and the receiver decodes the envelope
/// first, then reads the payload tail directly into a freshly acquired
/// pooled buffer. No intermediate frame-sized vector exists on either
/// side.
///
///   offset  size  field
///   ------  ----  -----------------------------------------------
///        0     4  magic 0x5350444E ("SPDN", big-endian constant)
///        4     4  envelope length in bytes (little-endian u32)
///        8     1  protocol version (kWireVersion)
///        9     1  message type (MsgType)
///       10     2  reserved (zero)
///       12     4  payload length in bytes (little-endian u32)
///       16     n  envelope (per-type layout below)
///     16+n     p  payload bytes (exactly `payload length` of them)
///
/// All multi-byte integers are little-endian. Strings are a u16 length
/// followed by raw bytes; the summary-STP vector a u16 slot count
/// followed by one i64 nanosecond value per slot (`aru::kUnknownStp` = 0
/// marks empty slots). An item's envelope carries its payload size as a
/// u32 — the bytes themselves ride in the frame's payload tail, and the
/// two lengths must agree (receivers reject frames where they differ).
///
/// The backward summary-STP vector is piggy-backed on the feedback-bearing
/// messages, making paper §3.3.2 Fig. 3 literal on the wire:
///
///  * `kGet` (consumer → channel) carries the consumer's summary-STP,
///    folded into the served channel's backwardSTP vector;
///  * `kGetReply` and `kPutAck` (channel → peer) carry the channel's full
///    backwardSTP vector plus its compressed summary, which the producing
///    process feeds to its source pacing;
///  * `kPut` (producer → channel) carries the producer's own backward
///    vector for diagnostics/tracing on the serving side.
///
/// Version 3 adds the pipelined put machinery. Every `kPut` carries a
/// per-link sequence number; `kPutAck` acknowledges *cumulatively*
/// (`cum_seq` = highest contiguously stored sequence) and advertises
/// `credits` — the receiver's current buffer slack — so a source may keep
/// up to that many puts in flight without waiting. `kHello` carries a
/// random per-transport `session` id plus the `start_seq` the sender will
/// resume from, letting the server suppress duplicates after a reconnect
/// replay (at-most-once channel semantics survive resends). A sync peer
/// simply keeps one put in flight and reads one ack per put; the frame
/// layouts are shared.
///
/// Version 4 adds replica sharing between sibling consumer proxies (one
/// process, several consumer slots on the same served channel). `kGet`
/// carries `have_origin`: the origin id of the newest replica the client
/// process already holds for the channel (0 = none). When the item the
/// server's `get_latest` picks for this consumer has exactly that id, the
/// server answers `reuse`: the reply keeps the full item envelope but the
/// frame announces `payload_len = 0` and sends no payload tail, and the
/// client hands back the replica it pinned. The consumer's cursor, skip
/// count, summary-STP fold and DGC guarantee are all applied server-side
/// exactly as for a payload-bearing reply. Item ids restart with every
/// server process, so `kHelloAck` carries `server_epoch`, a random id per
/// ChannelServer instance; a client only hints an origin fetched under
/// the epoch of the link it is about to send on.
///
/// Decoding is defensive: every length is bounds-checked against both the
/// buffer and a hard cap (kMaxStpSlots, kMaxAttrs, kMaxPayloadBytes,
/// kMaxNameBytes, kMaxEnvelopeBytes), and a truncated or corrupt buffer
/// yields `false` plus a diagnostic — never undefined behaviour. The
/// fuzz-style round-trip and truncation tests live in tests/test_wire.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "runtime/types.hpp"
#include "util/static_annotations.hpp"
#include "util/time.hpp"

namespace stampede::net {

inline constexpr std::uint32_t kWireMagic = 0x5350444E;  // "SPDN"
inline constexpr std::uint8_t kWireVersion = 4;
inline constexpr std::size_t kHeaderBytes = 16;

/// Hard caps a decoder enforces before trusting any on-the-wire length.
inline constexpr std::size_t kMaxStpSlots = 64;  ///< matches Channel::kMaxConsumers
inline constexpr std::size_t kMaxAttrs = 64;
inline constexpr std::size_t kMaxNameBytes = 256;
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 26;  // 64 MiB
/// Upper bound on an envelope. Every message's fixed fields plus maxed-out
/// variable fields (name, attrs, STP slots) total well under 2 KiB, which
/// is what lets the whole envelope path live in stack buffers.
inline constexpr std::size_t kMaxEnvelopeBytes = 2048;

enum class MsgType : std::uint8_t {
  kHello = 1,    ///< connection attach: channel name + endpoint keys
  kHelloAck,     ///< attach outcome
  kPut,          ///< item + producer backward-STP vector
  kPutAck,       ///< stored/closed + channel summary + backward-STP vector
  kGet,          ///< latest-item request + consumer summary-STP + guarantee
  kGetReply,     ///< item (or closed) + channel summary + backward-STP vector
  kHeartbeat,    ///< liveness while a blocking get waits server-side
  kClose,        ///< orderly goodbye
};

/// True for a value the header decoder should accept.
constexpr bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MsgType::kHello) &&
         t <= static_cast<std::uint8_t>(MsgType::kClose);
}

const char* to_string(MsgType type);

/// A random nonzero 64-bit id (transport sessions, server epochs); 0 reads
/// as "none" on the wire.
std::uint64_t random_wire_id();

/// Well-known item attribute keys. Attributes are free-form (key, value)
/// tags preserved end-to-end; unknown keys must be carried through.
inline constexpr std::uint32_t kTagProducerNode = 1;  ///< origin-process producer NodeId
inline constexpr std::uint32_t kTagClusterNode = 2;   ///< origin-process cluster node

/// A timestamped item in transit: everything a peer needs to materialize
/// a local `Item` replica plus the attribute tags riding along. The
/// payload bytes are NOT part of the envelope — `payload_bytes` records
/// their size and the frame's payload tail carries them.
struct WireItem {
  Timestamp ts = kNoTimestamp;
  std::uint64_t origin_id = 0;  ///< item id in the *sending* process's id space
  std::int64_t produce_cost_ns = 0;
  std::vector<std::pair<std::uint32_t, std::int64_t>> attrs;
  std::uint32_t payload_bytes = 0;  ///< size of the frame's payload tail

  bool operator==(const WireItem&) const = default;
};

struct HelloMsg {
  std::string channel;
  std::int32_t producer_key = -1;  ///< pre-registered producer slot (-1 = none)
  std::int32_t consumer_key = -1;  ///< pre-registered consumer slot (-1 = none)
  std::uint64_t session = 0;       ///< random per-transport id for dup suppression
  std::uint64_t start_seq = 0;     ///< first put sequence this attach will send

  bool operator==(const HelloMsg&) const = default;
};

struct HelloAckMsg {
  bool ok = false;
  std::string message;
  std::uint32_t credits = 0;  ///< receiver buffer slack at attach time
  std::uint64_t server_epoch = 0;  ///< random per-ChannelServer id (item id space)

  bool operator==(const HelloAckMsg&) const = default;
};

struct PutMsg {
  std::uint64_t seq = 0;  ///< per-link sequence number (monotonic from start_seq)
  WireItem item;
  std::vector<Nanos> stp;  ///< producer's backwardSTP vector (diagnostic)

  bool operator==(const PutMsg&) const = default;
};

struct PutAckMsg {
  bool stored = false;
  bool closed = false;        ///< channel is closed; producers should stop
  Nanos summary{0};           ///< channel summary-STP (paper §3.3.2 put return)
  std::uint64_t cum_seq = 0;  ///< cumulative ack: all seq ≤ this are settled
  std::uint32_t credits = 0;  ///< receiver buffer slack after this ack
  std::vector<Nanos> stp;     ///< channel's full backwardSTP vector

  bool operator==(const PutAckMsg&) const = default;
};

struct GetMsg {
  Nanos consumer_summary{0};            ///< piggy-backed consumer summary-STP
  Timestamp guarantee = kNoTimestamp;   ///< DGC extra guarantee (kNoTimestamp = none)
  std::uint64_t have_origin = 0;        ///< origin id of the client's newest replica (0 = none)

  bool operator==(const GetMsg&) const = default;
};

struct GetReplyMsg {
  bool has_item = false;
  bool closed = false;  ///< channel closed and drained: consumer should stop
  /// The item is the one the GetMsg named in have_origin: no payload tail
  /// follows, the client reuses its replica. Only valid with has_item.
  bool reuse = false;
  WireItem item;        ///< valid only when has_item
  std::int32_t skipped = 0;
  Nanos summary{0};          ///< channel summary-STP
  std::vector<Nanos> stp;    ///< channel's full backwardSTP vector

  bool operator==(const GetReplyMsg&) const = default;
};

struct HeartbeatMsg {
  std::int64_t t_ns = 0;  ///< sender clock at emission (diagnostics)

  bool operator==(const HeartbeatMsg&) const = default;
};

/// Decoded frame header.
struct FrameHeader {
  MsgType type{};
  std::uint32_t body_len = 0;     ///< envelope length (≤ kMaxEnvelopeBytes)
  std::uint32_t payload_len = 0;  ///< payload tail length (≤ kMaxPayloadBytes)
};

/// An encoded header + envelope, ready to send. Lives entirely on the
/// stack (the envelope cap makes that cheap); the payload tail — when the
/// message has one — is sent separately from the item's own buffer.
struct FrameBuf {
  std::array<std::byte, kHeaderBytes + kMaxEnvelopeBytes> data;
  std::size_t len = 0;

  std::span<const std::byte> span() const { return {data.data(), len}; }
};

/// A received envelope body (header already consumed). Sized for the
/// worst-case envelope so the receive path never heap-allocates.
struct EnvelopeBody {
  std::array<std::byte, kMaxEnvelopeBytes> data;
  std::size_t len = 0;

  std::span<const std::byte> span() const { return {data.data(), len}; }
  std::span<std::byte> storage(std::size_t n) { return {data.data(), n}; }
};

// -- encoding ---------------------------------------------------------------
// Each returns the frame's header + envelope; for item-bearing messages
// the header's payload_len field is item.payload_bytes and the caller is
// responsible for sending exactly that many payload bytes after the
// envelope. Encoders enforce the same hard caps as the decoders: a
// variable-length field over its cap (name, STP slots, attrs) throws
// std::length_error at the sender instead of emitting a frame every peer
// would reject.

ARU_HOT_PATH FrameBuf encode(const HelloMsg& m);
ARU_HOT_PATH FrameBuf encode(const HelloAckMsg& m);
ARU_HOT_PATH FrameBuf encode(const PutMsg& m);
/// In-place variant for the pipelined window: encodes into the slot's own
/// FrameBuf, skipping the ~2 KiB struct copy a by-value return costs on
/// every enqueued put.
ARU_HOT_PATH void encode_into(const PutMsg& m, FrameBuf& out);
ARU_HOT_PATH FrameBuf encode(const PutAckMsg& m);
ARU_HOT_PATH FrameBuf encode(const GetMsg& m);
ARU_HOT_PATH FrameBuf encode(const GetReplyMsg& m);
ARU_HOT_PATH FrameBuf encode(const HeartbeatMsg& m);
ARU_HOT_PATH FrameBuf encode_close();

// -- decoding ---------------------------------------------------------------
// All decoders return false (and set *err when non-null) on truncated,
// oversized, or malformed input. They never throw and never read out of
// bounds.

/// Decodes the 16-byte header; `buf` must hold at least kHeaderBytes.
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode_header(std::span<const std::byte> buf,
                                                 FrameHeader& out, std::string* err);

ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body, HelloMsg& out,
                                          std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body,
                                          HelloAckMsg& out, std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body, PutMsg& out,
                                          std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body, PutAckMsg& out,
                                          std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body, GetMsg& out,
                                          std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body,
                                          GetReplyMsg& out, std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body,
                                          HeartbeatMsg& out, std::string* err);

}  // namespace stampede::net
