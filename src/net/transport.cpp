#include "net/transport.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "telemetry/registry.hpp"

namespace stampede::net {
namespace {

/// Sleep slice while waiting out a backoff gate: short enough that stop
/// requests are honored promptly.
constexpr Nanos kRetrySlice = millis(5);

/// RPC latency buckets: 10µs .. 1s, roughly 1-2-5 per decade. An RPC
/// spans at least one network round-trip, so sub-10µs resolution is
/// noise; anything beyond 1s has blown through io_timeout already.
constexpr std::array<std::int64_t, 16> kRpcLatencyBounds = {
    10'000,      20'000,      50'000,       100'000,      200'000,    500'000,
    1'000'000,   2'000'000,   5'000'000,    10'000'000,   20'000'000, 50'000'000,
    100'000'000, 200'000'000, 500'000'000,  1'000'000'000};

/// Per-thread scratch for the rpc event batch: flush() clears it after
/// draining into the shard, so capacity persists across attempts and
/// calls and the steady-state rpc path does not allocate for tracing.
std::vector<stats::Event>& tl_rpc_events() {
  static thread_local std::vector<stats::Event> batch;
  return batch;
}

/// Flush the staged batch once it holds this many bytes: large enough to
/// amortize the sendmsg, small enough to stay well under the send buffer
/// and keep the server's burst decoder busy rather than bursty. Also the
/// payload a pipelined put link sends between two collections of arrived
/// acks at most: one poll() per 32 KiB put costs little next to the copy,
/// and an acked frame-scale put is released by the very next put.
constexpr std::size_t kFlushBytes = std::size_t{32} * 1024;

/// Payload tails larger than this skip the staging copy and ride the
/// flush as a zero-copy trailing iovec instead.
constexpr std::size_t kInlinePayloadMax = std::size_t{8} * 1024;

/// Frames-per-flush histogram buckets (powers of two up to the largest
/// sensible window).
constexpr std::array<std::int64_t, 8> kBatchBounds = {1, 2, 4, 8, 16, 32, 64, 128};

/// Opportunistic ack-drain cadence for a window under no pressure: a
/// pipelined put polls the socket for arrived acks at most this many puts
/// apart (sooner once the window is about to fill or kFlushBytes of
/// payload went out since the last poll), bounding both summary-STP
/// feedback staleness and the unread heartbeat backlog of a slow producer
/// without paying a poll() syscall on every small put.
constexpr std::size_t kDrainEvery = 16;

}  // namespace

Transport::Transport(RunContext& ctx, NodeId node, TransportConfig config, HelloMsg hello,
                     stats::Shard* shard)
    : ctx_(ctx),
      node_(node),
      config_(std::move(config)),
      hello_(std::move(hello)),
      session_(random_wire_id()),
      shard_(shard) {
  const bool windowed = config_.put_window > 0 && hello_.producer_key >= 0;
  if (windowed) window_.resize(config_.put_window);

  if (ctx_.metrics != nullptr) {
    // One link per transport; puts and gets of the same channel are
    // distinct links (separate sockets), so the label tells them apart.
    telemetry::Registry::Labels labels = {
        {"link", hello_.channel + (hello_.producer_key >= 0 ? "/put" : "/get")}};
    telemetry::Registry& reg = *ctx_.metrics;
    met_tx_ = &reg.counter("aru_net_tx_bytes_total",
                           "Bytes sent on this transport link (frames + payload).",
                           labels);
    met_rx_ = &reg.counter("aru_net_rx_bytes_total",
                           "Bytes received on this transport link.", labels);
    met_reconnects_ = &reg.counter(
        "aru_net_reconnects_total",
        "Successful handshakes after the first (link recoveries).", labels);
    met_rpc_ = &reg.histogram(
        "aru_net_rpc_latency_ns",
        "End-to-end rpc() latency (connect wait + exchange), nanoseconds.",
        kRpcLatencyBounds, labels);
    if (windowed) {
      met_window_ = &reg.gauge("aru_net_put_window",
                               "Unacknowledged pipelined puts in flight.", labels);
      met_window_bytes_ = &reg.gauge(
          "aru_net_put_window_bytes",
          "Payload bytes of unacknowledged pipelined puts (slabs the sender pins).",
          labels);
      const auto reason_counter = [&](const char* reason) {
        telemetry::Registry::Labels rl = labels;
        rl.push_back({"reason", reason});
        return &reg.counter("aru_net_put_flush_total",
                            "Staged put batches flushed, by trigger.", rl);
      };
      met_flush_window_ = reason_counter("window");
      met_flush_bytes_ = reason_counter("bytes");
      met_flush_age_ = reason_counter("age");
      met_flush_explicit_ = reason_counter("explicit");
      met_batch_ = &reg.histogram("aru_net_put_batch_frames",
                                  "Put frames per scatter/gather flush.",
                                  kBatchBounds, labels);
    }
  }
}

void Transport::add_event(EventBatch& events, stats::EventType type, std::int64_t a,
                          std::int64_t b) const {
  events.push_back(stats::Event{
      .type = type, .node = node_, .t = ctx_.now_ns(), .a = a, .b = b});
  switch (type) {
    case stats::EventType::kNetTx:
      if (met_tx_ != nullptr) met_tx_->add(static_cast<std::uint64_t>(a));
      break;
    case stats::EventType::kNetRx:
      if (met_rx_ != nullptr) met_rx_->add(static_cast<std::uint64_t>(a));
      break;
    case stats::EventType::kReconnect:
      if (met_reconnects_ != nullptr) met_reconnects_->add();
      break;
    default:
      break;
  }
}

void Transport::flush(EventBatch& events) {
  if (events.empty()) return;
  const util::MutexLock lock(stats_mu_);
  for (const stats::Event& e : events) shard_->record(e);
  events.clear();
}

void Transport::disconnect() {
  EventBatch events;
  {
    const util::MutexLock lock(mu_);
    disconnect_locked();
  }
  flush(events);
}

void Transport::disconnect_locked() {
  stream_.close();
  connected_.store(false, std::memory_order_relaxed);
  server_epoch_.store(0, std::memory_order_relaxed);
}

bool Transport::ensure_connected_locked(EventBatch& events) {
  if (stream_.valid()) return true;

  const std::int64_t now = ctx_.now_ns();
  if (now < next_attempt_ns_) return false;  // backoff gate not yet open

  auto fail = [&] {
    ++failed_attempts_;
    backoff_ = backoff_.count() == 0
                   ? config_.backoff_initial
                   : std::min(backoff_ * 2, config_.backoff_max);
    next_attempt_ns_ = now + backoff_.count();
    return false;
  };

  auto stream = TcpStream::connect(config_.host, config_.port, config_.connect_timeout);
  if (!stream) return fail();
  stream_ = std::move(*stream);

  // A new socket: whatever was staged for the old one is void. The window
  // (not the staging buffer) is the source of truth for retransmission.
  sendbuf_.clear();
  staged_frames_ = 0;

  // Handshake: Hello → HelloAck(ok). The handshake never carries payload.
  // Each attempt advertises this transport's session id and the sequence
  // it will resume from, so the server can suppress replayed duplicates.
  HelloMsg hello_msg = hello_;
  hello_msg.session = session_;
  hello_msg.start_seq = cum_acked_ + 1;
  const FrameBuf hello = encode(hello_msg);
  if (stream_.send_all(hello.span(), config_.io_timeout) != IoStatus::kOk) {
    disconnect_locked();
    return fail();
  }
  add_event(events, stats::EventType::kNetTx, static_cast<std::int64_t>(hello.len),
            static_cast<std::int64_t>(MsgType::kHello));
  FrameHeader header{};
  EnvelopeBody body;
  if (!read_frame_locked(header, body) || header.type != MsgType::kHelloAck ||
      header.payload_len != 0) {
    disconnect_locked();
    return fail();
  }
  add_event(events, stats::EventType::kNetRx,
            static_cast<std::int64_t>(kHeaderBytes + header.body_len),
            static_cast<std::int64_t>(header.type));
  HelloAckMsg ack;
  if (!decode(body.span(), ack, nullptr) || !ack.ok) {
    disconnect_locked();
    return fail();
  }
  credits_ = ack.credits;
  server_epoch_.store(ack.server_epoch, std::memory_order_relaxed);

  if (had_session_) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    add_event(events, stats::EventType::kReconnect, failed_attempts_, backoff_.count());
  }
  had_session_ = true;
  failed_attempts_ = 0;
  backoff_ = Nanos{0};
  next_attempt_ns_ = 0;

  // Pipelined links replay their unacked tail before anything new goes
  // out, so a reconnect preserves send order (the server's dup filter
  // makes the replay at-most-once on the channel).
  if (!window_.empty() && in_flight_locked() > 0 && !resend_window_locked(events)) {
    return fail();
  }
  connected_.store(true, std::memory_order_relaxed);
  return true;
}

std::size_t Transport::effective_window_locked() const {
  const std::size_t by_credit =
      credits_ == 0 ? std::size_t{1} : static_cast<std::size_t>(credits_);
  return std::max<std::size_t>(1, std::min(window_.size(), by_credit));
}

void Transport::apply_put_ack_locked(const PutAckMsg& ack) {
  for (std::uint64_t s = cum_acked_ + 1; s <= ack.cum_seq && s < next_seq_; ++s) {
    WindowSlot& slot = window_[static_cast<std::size_t>((s - 1) % window_.size())];
    in_flight_bytes_ -= slot.payload.size();
    slot.payload = {};
    slot.keepalive.reset();
  }
  if (ack.cum_seq > cum_acked_) cum_acked_ = std::min(ack.cum_seq, next_seq_ - 1);
  credits_ = ack.credits;
  if (aru::known(ack.summary)) last_ack_summary_ = ack.summary;
  if (ack.closed) remote_closed_ = true;
  publish_window_locked();
}

void Transport::publish_window_locked() {
  if (met_window_ == nullptr) return;
  met_window_->set(static_cast<std::int64_t>(in_flight_locked()));
  met_window_bytes_->set(static_cast<std::int64_t>(in_flight_bytes_));
}

bool Transport::drain_acks_locked(EventBatch& events) {
  puts_since_drain_ = 0;
  bytes_since_drain_ = 0;
  while (stream_.valid() && stream_.readable(Nanos{0})) {
    FrameHeader header{};
    EnvelopeBody body;
    if (!read_frame_locked(header, body)) return false;
    add_event(events, stats::EventType::kNetRx,
              static_cast<std::int64_t>(kHeaderBytes + header.body_len),
              static_cast<std::int64_t>(header.type));
    if (header.type == MsgType::kHeartbeat && header.payload_len == 0) continue;
    if (header.type != MsgType::kPutAck || header.payload_len != 0 ||
        !decode(body.span(), ack_scratch_, nullptr)) {
      disconnect_locked();
      return false;
    }
    apply_put_ack_locked(ack_scratch_);
  }
  return stream_.valid();
}

bool Transport::read_ack_blocking_locked(const std::stop_token& st, EventBatch& events,
                                         bool* stopped) {
  *stopped = false;
  FrameHeader header{};
  EnvelopeBody body;
  if (!read_frame_locked(header, body)) return false;
  add_event(events, stats::EventType::kNetRx,
            static_cast<std::int64_t>(kHeaderBytes + header.body_len),
            static_cast<std::int64_t>(header.type));
  if (header.type == MsgType::kHeartbeat && header.payload_len == 0) {
    if (stop_requested(st)) {
      // Abandoning with puts in flight: the window keeps them for a
      // resend, but this socket's stream position is now ambiguous.
      disconnect_locked();
      *stopped = true;
      return false;
    }
    return true;
  }
  if (header.type != MsgType::kPutAck || header.payload_len != 0 ||
      !decode(body.span(), ack_scratch_, nullptr)) {
    disconnect_locked();
    return false;
  }
  apply_put_ack_locked(ack_scratch_);
  return true;
}

bool Transport::flush_staged_locked(FlushReason reason, EventBatch& events) {
  if (sendbuf_.empty()) return true;
  const std::size_t bytes = sendbuf_.size();
  const std::size_t frames = staged_frames_;
  staged_frames_ = 0;
  if (sendbuf_.flush(stream_, config_.io_timeout) != IoStatus::kOk) {
    disconnect_locked();
    return false;
  }
  add_event(events, stats::EventType::kNetTx, static_cast<std::int64_t>(bytes),
            static_cast<std::int64_t>(MsgType::kPut));
  telemetry::Counter* reason_counter = nullptr;
  switch (reason) {
    case FlushReason::kWindow: reason_counter = met_flush_window_; break;
    case FlushReason::kBytes: reason_counter = met_flush_bytes_; break;
    case FlushReason::kAge: reason_counter = met_flush_age_; break;
    case FlushReason::kExplicit: reason_counter = met_flush_explicit_; break;
  }
  if (reason_counter != nullptr) reason_counter->add();
  if (met_batch_ != nullptr && frames > 0) {
    met_batch_->observe(static_cast<std::int64_t>(frames));
  }
  return true;
}

bool Transport::resend_window_locked(EventBatch& events) {
  for (std::uint64_t s = cum_acked_ + 1; s < next_seq_; ++s) {
    const WindowSlot& slot =
        window_[static_cast<std::size_t>((s - 1) % window_.size())];
    if (sendbuf_.flush_with(stream_, slot.frame.span(), slot.payload,
                            config_.io_timeout) != IoStatus::kOk) {
      disconnect_locked();
      return false;
    }
    add_event(events, stats::EventType::kNetTx,
              static_cast<std::int64_t>(slot.frame.len + slot.payload.size()),
              static_cast<std::int64_t>(MsgType::kPut));
  }
  return true;
}

bool Transport::read_frame_locked(FrameHeader& header, EnvelopeBody& body) {
  std::array<std::byte, kHeaderBytes> raw;
  if (stream_.recv_exact(raw, config_.io_timeout) != IoStatus::kOk) {
    disconnect_locked();
    return false;
  }
  if (!decode_header(raw, header, nullptr)) {
    disconnect_locked();
    return false;
  }
  body.len = header.body_len;  // decode_header capped this at kMaxEnvelopeBytes
  if (header.body_len > 0 &&
      stream_.recv_exact(body.storage(header.body_len), config_.io_timeout) !=
          IoStatus::kOk) {
    disconnect_locked();
    return false;
  }
  return true;
}

Transport::RpcStatus Transport::exchange_locked(const FrameBuf& frame,
                                                std::span<const std::byte> payload,
                                                MsgType expect, EnvelopeBody& reply_body,
                                                const PayloadSink& sink,
                                                EventBatch& events,
                                                const std::stop_token& st) {
  // Any staged pipelined puts ride the same sendmsg as this request (the
  // "explicit" flush trigger — a get must observe every put queued before
  // it). The staged bytes are part of this link's in-order stream, so a
  // failure is a single link death either way.
  const std::size_t staged = sendbuf_.size();
  const std::size_t staged_count = staged_frames_;
  staged_frames_ = 0;
  if (sendbuf_.flush_with(stream_, frame.span(), payload, config_.io_timeout) !=
      IoStatus::kOk) {
    disconnect_locked();
    return RpcStatus::kDisconnected;
  }
  if (staged > 0) {
    if (met_flush_explicit_ != nullptr) met_flush_explicit_->add();
    if (met_batch_ != nullptr && staged_count > 0) {
      met_batch_->observe(static_cast<std::int64_t>(staged_count));
    }
  }
  FrameHeader req_header{};
  decode_header(frame.span(), req_header, nullptr);
  add_event(events, stats::EventType::kNetTx,
            static_cast<std::int64_t>(staged + frame.len + payload.size()),
            static_cast<std::int64_t>(req_header.type));

  // Heartbeats count as liveness (they reset the per-frame io_timeout) but
  // are otherwise consumed here; anything else must be the expected reply.
  // A live-but-idle server heartbeats forever, so the stop token must be
  // re-checked between frames or a parked get never observes shutdown.
  for (;;) {
    FrameHeader header{};
    if (!read_frame_locked(header, reply_body)) return RpcStatus::kDisconnected;
    if (header.type == MsgType::kHeartbeat) {
      if (header.payload_len != 0) {
        // Protocol violation — and an unconsumed payload tail would
        // desynchronize every subsequent frame.
        disconnect_locked();
        return RpcStatus::kDisconnected;
      }
      add_event(events, stats::EventType::kNetRx,
                static_cast<std::int64_t>(kHeaderBytes + header.body_len),
                static_cast<std::int64_t>(header.type));
      if (stop_requested(st)) {
        // Abandoning mid-RPC: the real reply may still arrive later and
        // would desynchronize the next exchange, so drop the link.
        disconnect_locked();
        return RpcStatus::kStopped;
      }
      continue;
    }
    if (header.type != expect) {
      disconnect_locked();
      return RpcStatus::kDisconnected;
    }
    if (header.payload_len > 0) {
      const std::span<std::byte> dest =
          sink ? sink(header, reply_body.span()) : std::span<std::byte>{};
      if (dest.size() != header.payload_len) {
        // No destination (or a mis-sized one): the tail cannot be read
        // into place, so the stream is unrecoverable — drop it.
        disconnect_locked();
        return RpcStatus::kDisconnected;
      }
      if (stream_.recv_exact(dest, config_.io_timeout) != IoStatus::kOk) {
        disconnect_locked();
        return RpcStatus::kDisconnected;
      }
    }
    add_event(events, stats::EventType::kNetRx,
              static_cast<std::int64_t>(kHeaderBytes + header.body_len +
                                        header.payload_len),
              static_cast<std::int64_t>(header.type));
    return RpcStatus::kOk;
  }
}

Transport::RpcStatus Transport::rpc(const FrameBuf& frame,
                                    std::span<const std::byte> payload, MsgType expect,
                                    EnvelopeBody& reply_body, const PayloadSink& sink,
                                    bool wait_for_link, std::stop_token st) {
  EventBatch& events = tl_rpc_events();
  const std::int64_t t0 = ctx_.now_ns();
  for (;;) {
    if (stop_requested(st)) return RpcStatus::kStopped;

    bool sent_or_failfast = true;
    RpcStatus status = RpcStatus::kDisconnected;
    {
      const util::MutexLock lock(mu_);
      if (ensure_connected_locked(events)) {
        status = exchange_locked(frame, payload, expect, reply_body, sink, events, st);
      } else if (wait_for_link) {
        sent_or_failfast = false;  // not connected yet — keep waiting
      }
    }
    flush(events);
    if (sent_or_failfast) {
      if (status == RpcStatus::kOk && met_rpc_ != nullptr) {
        met_rpc_->observe(ctx_.now_ns() - t0);
      }
      return status;
    }

    ctx_.clock->sleep_for(kRetrySlice);
  }
}

Transport::PutOutcome Transport::put_pipelined(PutMsg& msg,
                                               std::span<const std::byte> payload,
                                               std::shared_ptr<const void> keepalive,
                                               std::stop_token st) {
  EventBatch& events = tl_rpc_events();
  PutOutcome out;
  if (stop_requested(st)) {
    out.status = RpcStatus::kStopped;
    return out;
  }
  {
    const util::MutexLock lock(mu_);
    out.summary = last_ack_summary_;
    out.closed = remote_closed_;
    if (window_.empty() || !ensure_connected_locked(events)) {
      // No window configured (sync link) or no link: fail fast, the
      // caller drops the item and keeps pacing on the held summary.
      out.status = RpcStatus::kDisconnected;
    } else if ((in_flight_locked() + 1 >= effective_window_locked() ||
                bytes_since_drain_ >= kFlushBytes ||
                ++puts_since_drain_ >= kDrainEvery) &&
               !drain_acks_locked(events)) {
      // Collect already-arrived acks when the window is about to block,
      // when kFlushBytes of payload went out since the last collection,
      // or every kDrainEvery puts. The byte trigger releases an acked
      // frame-scale put at the very next put, not when the byte cap
      // forces a blocking read, and hands the caller the freshest
      // summary-STP. It counts bytes sent, not bytes unacked: a
      // saturating stream of small puts keeps more than 32 KiB unacked
      // while its acks are still in flight, and polling on every put
      // would buy nothing. The cadence bounds feedback staleness and
      // keeps a slow producer's receive buffer drained of heartbeats
      // even though its window never fills. False = link died; the item
      // was never queued.
      out.status = RpcStatus::kDisconnected;
    } else {
      // Make room: window-full means we owe the server a flush (it cannot
      // ack frames still sitting in our staging buffer) and then a
      // blocking read until a coalesced ack frees a slot.
      bool ok = true;
      while (ok && (in_flight_locked() >= effective_window_locked() ||
                    (in_flight_locked() > 0 &&
                     in_flight_bytes_ + payload.size() > config_.put_window_bytes))) {
        bool stopped = false;
        if (!flush_staged_locked(FlushReason::kWindow, events) ||
            !read_ack_blocking_locked(st, events, &stopped)) {
          out.status = stopped ? RpcStatus::kStopped : RpcStatus::kDisconnected;
          ok = false;
        }
      }
      if (ok) {
        msg.seq = next_seq_++;
        WindowSlot& slot =
            window_[static_cast<std::size_t>((msg.seq - 1) % window_.size())];
        slot.seq = msg.seq;
        encode_into(msg, slot.frame);
        slot.payload = payload;
        slot.keepalive = std::move(keepalive);
        in_flight_bytes_ += payload.size();
        bytes_since_drain_ += payload.size();
        publish_window_locked();

        if (staged_frames_ == 0) first_staged_ns_ = ctx_.now_ns();
        bool flushed_inline = false;
        if (payload.size() > kInlinePayloadMax) {
          // Zero-copy tail: prior staged frames + this envelope + the slab
          // payload in one sendmsg.
          const std::size_t batch = staged_frames_ + 1;
          staged_frames_ = 0;
          if (sendbuf_.flush_with(stream_, slot.frame.span(), slot.payload,
                                  config_.io_timeout) != IoStatus::kOk) {
            disconnect_locked();  // queued: the window will resend it
          } else {
            add_event(events, stats::EventType::kNetTx,
                      static_cast<std::int64_t>(slot.frame.len + slot.payload.size()),
                      static_cast<std::int64_t>(MsgType::kPut));
            if (met_flush_bytes_ != nullptr) met_flush_bytes_->add();
            if (met_batch_ != nullptr) {
              met_batch_->observe(static_cast<std::int64_t>(batch));
            }
          }
          flushed_inline = true;
        } else {
          const std::size_t need = slot.frame.len + payload.size();
          if (sendbuf_.capacity_left() < need &&
              !flush_staged_locked(FlushReason::kBytes, events)) {
            flushed_inline = true;  // link died; window keeps the put
          } else if (stream_.valid()) {
            sendbuf_.append(slot.frame.span());
            if (!payload.empty()) sendbuf_.append(payload);
            ++staged_frames_;
            if (staged_frames_ == 1) first_staged_ns_ = ctx_.now_ns();
          }
        }

        // Flush triggers beyond the inline ones: the window just filled
        // (next put would block anyway), the batch is big enough to
        // amortize its syscall, or the oldest staged frame aged out.
        if (!flushed_inline && stream_.valid() && !sendbuf_.empty()) {
          if (in_flight_locked() >= effective_window_locked() ||
              in_flight_bytes_ >= config_.put_window_bytes) {
            flush_staged_locked(FlushReason::kWindow, events);
          } else if (sendbuf_.size() >= kFlushBytes) {
            flush_staged_locked(FlushReason::kBytes, events);
          } else if (Nanos{ctx_.now_ns() - first_staged_ns_} >=
                     config_.flush_interval) {
            flush_staged_locked(FlushReason::kAge, events);
          }
        }
        out.status = RpcStatus::kOk;
      }
    }
    out.summary = last_ack_summary_;
    out.closed = remote_closed_;
  }
  flush(events);
  return out;
}

bool Transport::flush_puts(std::stop_token st) {
  EventBatch& events = tl_rpc_events();
  for (;;) {
    if (stop_requested(st)) return false;
    bool drained = false;
    bool wait_for_link = false;
    bool stopped = false;
    {
      const util::MutexLock lock(mu_);
      if (window_.empty() || in_flight_locked() == 0) {
        drained = true;
      } else if (!ensure_connected_locked(events)) {
        wait_for_link = true;  // backoff gate; sleep below and retry
      } else if (flush_staged_locked(FlushReason::kExplicit, events)) {
        read_ack_blocking_locked(st, events, &stopped);
      }
    }
    flush(events);  // outside mu_: the shard lock ranks below kNet
    if (stopped) return false;
    if (drained) return true;
    if (wait_for_link) ctx_.clock->sleep_for(kRetrySlice);
  }
}

std::size_t Transport::puts_in_flight() const {
  const util::MutexLock lock(mu_);
  return window_.empty() ? 0 : in_flight_locked();
}

}  // namespace stampede::net
