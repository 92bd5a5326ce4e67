#include "net/wire.hpp"

#include <cstring>
#include <random>
#include <stdexcept>

namespace stampede::net {
namespace {

/// Bounded little-endian writer over a FrameBuf. Variable-length fields
/// are validated against the same hard caps the decoders enforce: a
/// message that would be rejected by every peer (or whose length prefix
/// would truncate and desynchronize the frame) throws std::length_error
/// at the sender, where the bug is, instead of causing a silent connect
/// loop. The caps also guarantee a conforming envelope fits the buffer,
/// so the capacity check is a backstop, not a working limit.
class Writer {
 public:
  explicit Writer(FrameBuf& out) : out_(out) {}

  void u8(std::uint8_t v) {
    check(out_.len < out_.data.size(), "envelope exceeds kMaxEnvelopeBytes");
    out_.data[out_.len++] = std::byte{v};
  }

  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    check(s.size() <= kMaxNameBytes, "string exceeds kMaxNameBytes");
    check(out_.data.size() - out_.len >= 2 + s.size(),
          "envelope exceeds kMaxEnvelopeBytes");
    u16(static_cast<std::uint16_t>(s.size()));
    std::memcpy(out_.data.data() + out_.len, s.data(), s.size());
    out_.len += s.size();
  }

  void stp_vector(const std::vector<Nanos>& v) {
    check(v.size() <= kMaxStpSlots, "STP vector exceeds kMaxStpSlots");
    u16(static_cast<std::uint16_t>(v.size()));
    for (Nanos n : v) i64(n.count());
  }

  void item(const WireItem& it) {
    check(it.attrs.size() <= kMaxAttrs, "attr count exceeds kMaxAttrs");
    check(it.payload_bytes <= kMaxPayloadBytes, "payload exceeds kMaxPayloadBytes");
    i64(it.ts);
    u64(it.origin_id);
    i64(it.produce_cost_ns);
    u16(static_cast<std::uint16_t>(it.attrs.size()));
    for (const auto& [key, value] : it.attrs) {
      u32(key);
      i64(value);
    }
    u32(it.payload_bytes);
  }

 private:
  static void check(bool ok, const char* what) {
    if (!ok) throw std::length_error(std::string("net encode: ") + what);
  }

  FrameBuf& out_;
};

/// Bounds-checked little-endian reader. Every accessor returns false once
/// the cursor would pass the end; `fail()` latches so a single check after
/// a run of reads suffices.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> buf) : buf_(buf) {}

  bool u8(std::uint8_t& v) {
    if (!need(1)) return false;
    v = static_cast<std::uint8_t>(buf_[pos_++]);
    return true;
  }

  bool u16(std::uint16_t& v) {
    std::uint8_t lo = 0, hi = 0;
    if (!u8(lo) || !u8(hi)) return false;
    v = static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(hi) << 8));
    return true;
  }

  bool u32(std::uint32_t& v) {
    std::uint16_t lo = 0, hi = 0;
    if (!u16(lo) || !u16(hi)) return false;
    v = static_cast<std::uint32_t>(lo) | (static_cast<std::uint32_t>(hi) << 16);
    return true;
  }

  bool u64(std::uint64_t& v) {
    std::uint32_t lo = 0, hi = 0;
    if (!u32(lo) || !u32(hi)) return false;
    v = static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
    return true;
  }

  bool i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }

  bool boolean(bool& v) {
    std::uint8_t b = 0;
    if (!u8(b)) return false;
    if (b > 1) return set_err("bad bool encoding");
    v = b != 0;
    return true;
  }

  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("attach-time name field, capped at kMaxNameBytes; put/get envelopes carry no strings")
  bool str(std::string& s) {
    std::uint16_t len = 0;
    if (!u16(len)) return false;
    if (len > kMaxNameBytes) return set_err("string exceeds kMaxNameBytes");
    if (!need(len)) return false;
    s.assign(reinterpret_cast<const char*>(buf_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("decodes into the caller's reused vector, capped at kMaxStpSlots; capacity amortizes to zero allocations")
  bool stp_vector(std::vector<Nanos>& v) {
    std::uint16_t count = 0;
    if (!u16(count)) return false;
    if (count > kMaxStpSlots) return set_err("STP vector exceeds kMaxStpSlots");
    v.clear();
    v.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      std::int64_t ns = 0;
      if (!i64(ns)) return false;
      v.push_back(Nanos{ns});
    }
    return true;
  }

  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("decodes into the caller's reused WireItem, attrs capped at kMaxAttrs; capacity amortizes to zero allocations")
  bool item(WireItem& it) {
    std::uint16_t attr_count = 0;
    if (!i64(it.ts) || !u64(it.origin_id) || !i64(it.produce_cost_ns) ||
        !u16(attr_count)) {
      return false;
    }
    if (attr_count > kMaxAttrs) return set_err("attr count exceeds kMaxAttrs");
    it.attrs.clear();
    it.attrs.reserve(attr_count);
    for (std::uint16_t i = 0; i < attr_count; ++i) {
      std::uint32_t key = 0;
      std::int64_t value = 0;
      if (!u32(key) || !i64(value)) return false;
      it.attrs.emplace_back(key, value);
    }
    if (!u32(it.payload_bytes)) return false;
    if (it.payload_bytes > kMaxPayloadBytes) {
      return set_err("payload exceeds kMaxPayloadBytes");
    }
    return true;
  }

  /// Everything consumed and nothing failed: a complete, exact decode.
  bool done() const { return !failed_ && pos_ == buf_.size(); }

  const char* error() const {
    if (err_ != nullptr) return err_;
    if (failed_) return "truncated buffer";
    if (pos_ != buf_.size()) return "trailing bytes after message";
    return "ok";
  }

  /// Latches a semantic decode error (always returns false).
  bool set_err(const char* what) {
    failed_ = true;
    if (err_ == nullptr) err_ = what;
    return false;
  }

 private:
  bool need(std::size_t n) {
    if (failed_ || buf_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  const char* err_ = nullptr;
};

void make_frame_into(FrameBuf& frame, MsgType type, std::uint32_t payload_len,
                     const auto& write_body) {
  frame.len = 0;
  Writer header(frame);
  header.u32(kWireMagic);
  header.u32(0);  // envelope length patched below
  header.u8(kWireVersion);
  header.u8(static_cast<std::uint8_t>(type));
  header.u16(0);  // reserved
  header.u32(payload_len);
  Writer body(frame);
  write_body(body);
  const auto body_len = static_cast<std::uint32_t>(frame.len - kHeaderBytes);
  frame.data[4] = std::byte{static_cast<std::uint8_t>(body_len)};
  frame.data[5] = std::byte{static_cast<std::uint8_t>(body_len >> 8)};
  frame.data[6] = std::byte{static_cast<std::uint8_t>(body_len >> 16)};
  frame.data[7] = std::byte{static_cast<std::uint8_t>(body_len >> 24)};
}

FrameBuf make_frame(MsgType type, std::uint32_t payload_len, const auto& write_body) {
  FrameBuf frame;
  make_frame_into(frame, type, payload_len, write_body);
  return frame;
}

bool finish(const Reader& r, std::string* err) {
  if (r.done()) return true;
  if (err != nullptr) *err = r.error();
  return false;
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloAck: return "hello_ack";
    case MsgType::kPut: return "put";
    case MsgType::kPutAck: return "put_ack";
    case MsgType::kGet: return "get";
    case MsgType::kGetReply: return "get_reply";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kClose: return "close";
  }
  return "unknown";
}

std::uint64_t random_wire_id() {
  std::random_device rd;
  const std::uint64_t id = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  return id == 0 ? 1 : id;
}

FrameBuf encode(const HelloMsg& m) {
  return make_frame(MsgType::kHello, 0, [&](Writer& w) {
    w.str(m.channel);
    w.u32(static_cast<std::uint32_t>(m.producer_key));
    w.u32(static_cast<std::uint32_t>(m.consumer_key));
    w.u64(m.session);
    w.u64(m.start_seq);
  });
}

FrameBuf encode(const HelloAckMsg& m) {
  return make_frame(MsgType::kHelloAck, 0, [&](Writer& w) {
    w.u8(m.ok ? 1 : 0);
    w.str(m.message);
    w.u32(m.credits);
    w.u64(m.server_epoch);
  });
}

FrameBuf encode(const PutMsg& m) {
  FrameBuf frame;
  encode_into(m, frame);
  return frame;
}

void encode_into(const PutMsg& m, FrameBuf& out) {
  make_frame_into(out, MsgType::kPut, m.item.payload_bytes, [&](Writer& w) {
    w.u64(m.seq);
    w.item(m.item);
    w.stp_vector(m.stp);
  });
}

FrameBuf encode(const PutAckMsg& m) {
  return make_frame(MsgType::kPutAck, 0, [&](Writer& w) {
    w.u8(m.stored ? 1 : 0);
    w.u8(m.closed ? 1 : 0);
    w.i64(m.summary.count());
    w.u64(m.cum_seq);
    w.u32(m.credits);
    w.stp_vector(m.stp);
  });
}

FrameBuf encode(const GetMsg& m) {
  return make_frame(MsgType::kGet, 0, [&](Writer& w) {
    w.i64(m.consumer_summary.count());
    w.i64(m.guarantee);
    w.u64(m.have_origin);
  });
}

FrameBuf encode(const GetReplyMsg& m) {
  // A reuse reply names an item the client already holds: its envelope
  // still records the item's size, but no payload tail follows.
  const std::uint32_t payload_len = m.has_item && !m.reuse ? m.item.payload_bytes : 0;
  return make_frame(MsgType::kGetReply, payload_len, [&](Writer& w) {
    w.u8(m.has_item ? 1 : 0);
    w.u8(m.closed ? 1 : 0);
    w.u8(m.reuse ? 1 : 0);
    w.item(m.item);
    w.u32(static_cast<std::uint32_t>(m.skipped));
    w.i64(m.summary.count());
    w.stp_vector(m.stp);
  });
}

FrameBuf encode(const HeartbeatMsg& m) {
  return make_frame(MsgType::kHeartbeat, 0, [&](Writer& w) { w.i64(m.t_ns); });
}

FrameBuf encode_close() {
  return make_frame(MsgType::kClose, 0, [](Writer&) {});
}

bool decode_header(std::span<const std::byte> buf, FrameHeader& out, std::string* err) {
  Reader r(buf.first(buf.size() < kHeaderBytes ? buf.size() : kHeaderBytes));
  std::uint32_t magic = 0, body_len = 0, payload_len = 0;
  std::uint8_t version = 0, type = 0;
  std::uint16_t reserved = 0;
  if (!r.u32(magic) || !r.u32(body_len) || !r.u8(version) || !r.u8(type) ||
      !r.u16(reserved) || !r.u32(payload_len)) {
    if (err != nullptr) *err = "header truncated";
    return false;
  }
  if (magic != kWireMagic) {
    if (err != nullptr) *err = "bad magic";
    return false;
  }
  if (version != kWireVersion) {
    if (err != nullptr) *err = "unsupported wire version";
    return false;
  }
  if (!valid_type(type)) {
    if (err != nullptr) *err = "unknown message type";
    return false;
  }
  if (body_len > kMaxEnvelopeBytes) {
    if (err != nullptr) *err = "envelope exceeds kMaxEnvelopeBytes";
    return false;
  }
  if (payload_len > kMaxPayloadBytes) {
    if (err != nullptr) *err = "payload exceeds kMaxPayloadBytes";
    return false;
  }
  out.type = static_cast<MsgType>(type);
  out.body_len = body_len;
  out.payload_len = payload_len;
  return true;
}

bool decode(std::span<const std::byte> body, HelloMsg& out, std::string* err) {
  Reader r(body);
  std::uint32_t producer = 0, consumer = 0;
  if (r.str(out.channel) && r.u32(producer) && r.u32(consumer) &&
      r.u64(out.session) && r.u64(out.start_seq)) {
    out.producer_key = static_cast<std::int32_t>(producer);
    out.consumer_key = static_cast<std::int32_t>(consumer);
  }
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, HelloAckMsg& out, std::string* err) {
  Reader r(body);
  if (r.boolean(out.ok) && r.str(out.message) && r.u32(out.credits)) {
    r.u64(out.server_epoch);
  }
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, PutMsg& out, std::string* err) {
  Reader r(body);
  if (r.u64(out.seq) && r.item(out.item)) r.stp_vector(out.stp);
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, PutAckMsg& out, std::string* err) {
  Reader r(body);
  std::int64_t summary_ns = 0;
  if (r.boolean(out.stored) && r.boolean(out.closed) && r.i64(summary_ns) &&
      r.u64(out.cum_seq) && r.u32(out.credits)) {
    out.summary = Nanos{summary_ns};
    r.stp_vector(out.stp);
  }
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, GetMsg& out, std::string* err) {
  Reader r(body);
  std::int64_t summary_ns = 0;
  if (r.i64(summary_ns) && r.i64(out.guarantee) && r.u64(out.have_origin)) {
    out.consumer_summary = Nanos{summary_ns};
  }
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, GetReplyMsg& out, std::string* err) {
  Reader r(body);
  std::uint32_t skipped = 0;
  std::int64_t summary_ns = 0;
  if (r.boolean(out.has_item) && r.boolean(out.closed) && r.boolean(out.reuse) &&
      (!out.reuse || out.has_item || r.set_err("reuse reply without an item")) &&
      r.item(out.item) && r.u32(skipped) && r.i64(summary_ns)) {
    out.skipped = static_cast<std::int32_t>(skipped);
    out.summary = Nanos{summary_ns};
    r.stp_vector(out.stp);
  }
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, HeartbeatMsg& out, std::string* err) {
  Reader r(body);
  r.i64(out.t_ns);
  return finish(r, err);
}

}  // namespace stampede::net
