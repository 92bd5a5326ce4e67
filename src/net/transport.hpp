/// \file transport.hpp
/// \brief Client-side connection manager: one logical link to a channel
///        server, with handshake, heartbeat-aware RPC, and bounded
///        exponential-backoff reconnect.
///
/// A Transport is *caller-driven*: it owns no background thread. Every
/// RPC — connect (with Hello/HelloAck handshake) if needed, send the
/// request frame, read frames until the expected reply type (heartbeats
/// are consumed as liveness) — runs on the calling task thread under one
/// `util::Mutex` of rank `kNet`. That keeps the whole net client inside
/// the lock-order validator and the -Wthread-safety analysis, and means a
/// stopped runtime has no orphan I/O threads to chase.
///
/// The RPC surface is zero-copy on both directions. A request is a stack
/// FrameBuf (header + envelope) plus an optional payload span sent
/// straight from the item's pooled slab via scatter-gather `send_vec` —
/// no staging vector. A reply's envelope lands in a stack EnvelopeBody;
/// when the reply carries a payload tail, the caller's PayloadSink is
/// handed the decoded-envelope bytes and must return the destination
/// span (typically a freshly acquired pooled buffer's mutable_data()),
/// into which the payload is received directly.
///
/// Reconnect policy: after a failed connect attempt the next attempt is
/// gated by an exponential backoff doubling from `backoff_initial` to at
/// most `backoff_max`. `wait_for_link` RPCs (gets) sleep through the gate
/// and retry; fail-fast RPCs (puts) return kDisconnected immediately so
/// the producer can drop the item and keep pacing. A successful handshake
/// after a previous session records a `kReconnect` trace event carrying
/// the failed-attempt count and the final backoff.
///
/// Pipelined puts (put_window > 0): `put_pipelined` assigns the put a
/// sequence number, parks the encoded frame + payload in a bounded
/// in-flight window, stages it in a SendBuffer (flushed on window-full,
/// buffer-full, or a small age bound — many envelopes and small payload
/// tails per sendmsg), and returns once queued. Coalesced `PutAckMsg`
/// frames (cumulative seq + credits + summary-STP) release window slots
/// and refresh the pacing feedback; the producer still paces against
/// summary-STP, it just learns it from the latest coalesced ack instead
/// of a per-item round trip. A put collects the acks that have already
/// arrived when the window is about to fill, once 32 KiB of payload went
/// out since the last collection (so a frame-scale put is released by
/// the next put after its ack lands), or every 16 puts. On reconnect the
/// handshake advertises the transport's random session id and resume
/// seq, then the unacked window tail is resent — the server suppresses
/// duplicates by (session, seq), preserving the channel's at-most-once
/// semantics.
///
/// Trace events (kNetTx/kNetRx/kReconnect) are composed under `mu_` and
/// appended to the stats shard only after it is released, under a
/// dedicated mutex of rank `kNetStats` — ranked *below* kNet so flushing
/// while holding the transport lock is a runtime hierarchy violation,
/// exactly mirroring the Channel kBufferStats/kBuffer discipline.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stop_token>
#include <string>
#include <vector>

#include "core/compress.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/context.hpp"
#include "stats/recorder.hpp"
#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace stampede::telemetry {
class Counter;
class Gauge;
class Histogram;
}  // namespace stampede::telemetry

namespace stampede::net {

struct TransportConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Budget for one TCP connect + handshake attempt.
  Nanos connect_timeout = millis(250);
  /// Per-frame send/receive budget. Must comfortably exceed the server's
  /// heartbeat interval: a live server emits *something* at least that
  /// often, so a full io_timeout of silence means the link is dead.
  Nanos io_timeout = seconds(1);
  /// Reconnect backoff bounds (attempt n waits min(initial·2ⁿ⁻¹, max)).
  Nanos backoff_initial = millis(10);
  Nanos backoff_max = millis(500);
  /// Pipelined put window: the maximum number of unacknowledged puts in
  /// flight on this link (further bounded by the credits the server
  /// advertises on coalesced acks). 0 selects the legacy synchronous
  /// one-RPC-per-put path. Only meaningful on producer links.
  std::size_t put_window = 64;
  /// Backstop against a slow acker: the most unacknowledged payload
  /// bytes this link may pin. A put that would cross it flushes and
  /// blocks reading acks until enough slots free. On a healthy link it
  /// does not bind: once 32 KiB of payload went out since the last
  /// collection, a put first collects the acks that have already
  /// arrived, so an acked frame is released at the next put. It binds
  /// when the receiver falls behind (slow server, full socket buffers),
  /// and then caps the pooled slabs held by the sender, the socket
  /// buffers and the receiver — an uncapped 64-slot window of 1 MiB
  /// frames would pin 64 MiB. A single put larger than the cap still
  /// goes out alone (the bound never starves the window below one
  /// in-flight put).
  std::size_t put_window_bytes = 4u << 20;
  /// How long a staged (encoded but unflushed) put frame may age in the
  /// send buffer before the next put forces a flush. Small enough that a
  /// steadily producing source never delays feedback noticeably; a tight
  /// producer loop amortizes many frames into one sendmsg within it.
  Nanos flush_interval = micros(200);
};

/// Supplies the destination buffer for an expected reply's payload tail.
/// Invoked (under the transport lock) after the reply envelope has been
/// received, with the decoded frame header and the raw envelope bytes;
/// must return a span of *exactly* `header.payload_len` bytes for the
/// payload to be received into, or an empty span to reject the frame
/// (which drops the connection — mid-frame there is no other recovery).
using PayloadSink = std::function<std::span<std::byte>(
    const FrameHeader& header, std::span<const std::byte> body)>;

class Transport {
 public:
  enum class RpcStatus : std::uint8_t {
    kOk,            ///< reply of the expected type received
    kDisconnected,  ///< no link (fail-fast mode) or link died mid-RPC
    kStopped,       ///< stop token fired / runtime stopping
  };

  /// \param ctx    run services (clock for timestamps and backoff sleeps).
  /// \param node   graph node the trace events are attributed to.
  /// \param hello  handshake sent on every (re)connect.
  /// \param shard  recorder shard owned by this transport.
  Transport(RunContext& ctx, NodeId node, TransportConfig config, HelloMsg hello,
            stats::Shard* shard);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Executes one request/reply exchange. `frame` is the encoded header +
  /// envelope; `payload` (possibly empty) is the request's payload tail,
  /// sent scatter-gather with the frame in one syscall — its length must
  /// equal the payload_len encoded in `frame`'s header. On kOk,
  /// `reply_body` holds the envelope of the first non-heartbeat reply
  /// frame, whose type matched `expect`; if that reply announced a
  /// payload tail, it has been received into the span `sink` returned
  /// (`sink` may be null for replies that never carry payload — a
  /// payload-bearing reply then drops the link).
  ///
  /// \param wait_for_link  true: block (through backoff/reconnect cycles)
  ///        until a link exists before sending — used by gets. false:
  ///        return kDisconnected at the first hurdle — used by puts.
  ///        Either way, once the request is sent the outcome is final:
  ///        a link death mid-RPC returns kDisconnected and the caller
  ///        decides whether to re-issue the (lost) request.
  ARU_HOT_PATH RpcStatus rpc(const FrameBuf& frame, std::span<const std::byte> payload,
                             MsgType expect, EnvelopeBody& reply_body,
                             const PayloadSink& sink, bool wait_for_link,
                             std::stop_token st) EXCLUDES(mu_, stats_mu_);

  /// Outcome of a pipelined (windowed) put.
  struct PutOutcome {
    RpcStatus status = RpcStatus::kDisconnected;
    bool closed = false;       ///< remote channel reported closed on an ack
    Nanos summary{0};          ///< latest coalesced-ack summary-STP (kUnknownStp before any)
  };

  /// Queues one put into the in-flight window and returns without waiting
  /// for its ack (config().put_window must be > 0). Assigns `msg.seq`,
  /// encodes the frame into a window slot, and stages it for a batched
  /// scatter/gather flush; `payload` must stay valid until acked, which
  /// `keepalive` guarantees (the item's shared_ptr). Blocks only when the
  /// window (or the server's advertised credits) is exhausted — then it
  /// flushes and reads coalesced acks until a slot frees, consuming
  /// heartbeats as liveness exactly like rpc(). kOk means queued (the
  /// window resends the unacked tail across reconnects); kDisconnected
  /// means the item was NOT queued (no link, fail-fast — caller drops it).
  ARU_HOT_PATH PutOutcome put_pipelined(PutMsg& msg, std::span<const std::byte> payload,
                                        std::shared_ptr<const void> keepalive,
                                        std::stop_token st) EXCLUDES(mu_, stats_mu_);

  /// Flushes staged put frames and blocks until every in-flight put is
  /// acked (or the link dies / stop fires). True when the window fully
  /// drained. For tests, benches, and orderly teardown.
  bool flush_puts(std::stop_token st) EXCLUDES(mu_, stats_mu_);

  /// Unacked pipelined puts currently in flight (diagnostics/tests).
  std::size_t puts_in_flight() const EXCLUDES(mu_);

  /// Drops the link (next rpc reconnects). Safe to call concurrently.
  void disconnect() EXCLUDES(mu_, stats_mu_);

  bool connected() const { return connected_.load(std::memory_order_relaxed); }

  /// Successful handshakes after the first (i.e. recoveries).
  std::int64_t reconnects() const { return reconnects_.load(std::memory_order_relaxed); }

  /// `server_epoch` from the live link's HelloAck: the item-id space the
  /// server's replies speak in. 0 while disconnected.
  std::uint64_t server_epoch() const {
    return server_epoch_.load(std::memory_order_relaxed);
  }

  const TransportConfig& config() const { return config_; }

 private:
  using EventBatch = std::vector<stats::Event>;

  /// Why a staged put batch left the send buffer (flush-reason counters).
  enum class FlushReason : std::uint8_t { kWindow, kBytes, kAge, kExplicit };

  /// One in-flight pipelined put: the encoded frame, the payload span it
  /// announces, and the shared_ptr that keeps the payload's slab alive
  /// until the cumulative ack passes its sequence number.
  struct WindowSlot {
    std::uint64_t seq = 0;
    FrameBuf frame;
    std::span<const std::byte> payload;
    std::shared_ptr<const void> keepalive;
  };

  /// Establishes the link if absent and due. Returns true when connected.
  bool ensure_connected_locked(EventBatch& events) REQUIRES(mu_);

  /// Sends frame+payload, then reads frames (skipping heartbeats) until
  /// one of type `expect` arrives; its payload tail (if any) is received
  /// via `sink`. Disconnects on any failure. The stop token is re-checked
  /// after every consumed heartbeat so a reply wait against a
  /// live-but-idle server (which heartbeats indefinitely) still honors
  /// shutdown; stop mid-RPC drops the link and returns kStopped.
  RpcStatus exchange_locked(const FrameBuf& frame, std::span<const std::byte> payload,
                            MsgType expect, EnvelopeBody& reply_body,
                            const PayloadSink& sink, EventBatch& events,
                            const std::stop_token& st) REQUIRES(mu_);

  /// Reads one frame's header + envelope (NOT its payload tail — that is
  /// the caller's job, via the header's payload_len). False (and
  /// disconnect) on any failure.
  bool read_frame_locked(FrameHeader& header, EnvelopeBody& body) REQUIRES(mu_);

  void disconnect_locked() REQUIRES(mu_);

  // -- pipelined-put window helpers -------------------------------------------

  std::size_t in_flight_locked() const REQUIRES(mu_) {
    return static_cast<std::size_t>(next_seq_ - 1 - cum_acked_);
  }

  /// Window bound for this instant: the configured window further limited
  /// by the server's advertised credits, but never below 1 — the server's
  /// backpressure wait (heartbeat-pumped try_put poll) guarantees progress
  /// for a single in-flight put even against a full bounded channel.
  std::size_t effective_window_locked() const REQUIRES(mu_);

  /// Applies one decoded coalesced ack: releases window slots up to
  /// cum_seq, refreshes credits / summary / closed.
  void apply_put_ack_locked(const PutAckMsg& ack) REQUIRES(mu_);

  /// Sets the window occupancy gauges (puts and payload bytes in flight).
  void publish_window_locked() REQUIRES(mu_);

  /// Reads already-arrived frames without waiting (readable(0)-gated) and
  /// applies acks; heartbeats are consumed. False = link died.
  bool drain_acks_locked(EventBatch& events) REQUIRES(mu_);

  /// Blocks for one frame (ack or heartbeat). Sets *stopped when a stop
  /// request interrupted the wait; false = link died or stopped.
  bool read_ack_blocking_locked(const std::stop_token& st, EventBatch& events,
                                bool* stopped) REQUIRES(mu_);

  /// Sends the staged batch in one scatter/gather flush, recording the
  /// reason counter and the batch-size histogram. False = link died.
  bool flush_staged_locked(FlushReason reason, EventBatch& events) REQUIRES(mu_);

  /// Retransmits the unacked window tail after a fresh handshake (dup
  /// suppression on the server keeps this at-most-once). False = link died.
  bool resend_window_locked(EventBatch& events) REQUIRES(mu_);

  /// Composes one trace event into the rpc path's reused per-thread
  /// batch (flush() clears it after draining, so capacity persists).
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("amortized: appends into the reused thread-local rpc event batch; flush() clears it after draining, so capacity persists")
  void add_event(EventBatch& events, stats::EventType type, std::int64_t a,
                 std::int64_t b) const;

  /// Appends a composed batch to the shard. Must be called WITHOUT mu_
  /// held (rank kNetStats < kNet makes the inverse order a validator
  /// abort in ARU_LOCK_DEBUG builds).
  void flush(EventBatch& events) EXCLUDES(mu_, stats_mu_);

  bool stop_requested(const std::stop_token& st) const {
    return st.stop_requested() || ctx_.stopping.load(std::memory_order_relaxed);
  }

  RunContext& ctx_;
  const NodeId node_;
  const TransportConfig config_;
  const HelloMsg hello_;
  /// Random per-transport session id, advertised on every Hello so the
  /// server can tell a reconnect replay (same session, resent seqs) from
  /// a brand-new producer reusing the slot.
  const std::uint64_t session_;

  mutable util::Mutex mu_{util::LockRank::kNet, "net.transport"};
  TcpStream stream_ GUARDED_BY(mu_);
  /// Backoff state: consecutive failed attempts since the link was lost,
  /// the current backoff, and the earliest instant of the next attempt.
  std::int64_t failed_attempts_ GUARDED_BY(mu_) = 0;
  Nanos backoff_ GUARDED_BY(mu_){0};
  std::int64_t next_attempt_ns_ GUARDED_BY(mu_) = 0;
  bool had_session_ GUARDED_BY(mu_) = false;

  /// Pipelined-put window ring (empty when put_window == 0 or this is a
  /// consumer link). Slot for seq s lives at (s-1) % size; sequence
  /// numbers start at 1 (0 marks an unsequenced legacy/sync put on the
  /// wire). All preallocated in the constructor — the enqueue path only
  /// copies into slots.
  std::vector<WindowSlot> window_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::uint64_t cum_acked_ GUARDED_BY(mu_) = 0;
  /// Sum of payload bytes across unacked window slots (put_window_bytes
  /// enforcement): grows on enqueue, shrinks as coalesced acks release
  /// slots.
  std::size_t in_flight_bytes_ GUARDED_BY(mu_) = 0;
  /// Puts since the last opportunistic ack drain (kDrainEvery cadence)
  /// and payload bytes queued since then (kFlushBytes trigger).
  std::size_t puts_since_drain_ GUARDED_BY(mu_) = 0;
  std::size_t bytes_since_drain_ GUARDED_BY(mu_) = 0;
  std::uint32_t credits_ GUARDED_BY(mu_) = 0;
  bool remote_closed_ GUARDED_BY(mu_) = false;
  Nanos last_ack_summary_ GUARDED_BY(mu_) = aru::kUnknownStp;
  /// Reused coalesced-ack decode scratch (stp capacity persists).
  PutAckMsg ack_scratch_ GUARDED_BY(mu_);
  /// Staging buffer for batched put flushes; count + age of what is staged.
  SendBuffer sendbuf_ GUARDED_BY(mu_);
  std::size_t staged_frames_ GUARDED_BY(mu_) = 0;
  std::int64_t first_staged_ns_ GUARDED_BY(mu_) = 0;

  mutable util::Mutex stats_mu_{util::LockRank::kNetStats, "net.transport.stats"};
  stats::Shard* const shard_ PT_GUARDED_BY(stats_mu_);

  std::atomic<bool> connected_{false};
  std::atomic<std::int64_t> reconnects_{0};
  std::atomic<std::uint64_t> server_epoch_{0};

  /// Live telemetry series (telemetry/registry.hpp), registered once in
  /// the constructor when the run carries a registry. Raw pointers into
  /// registry-owned storage; null when telemetry is absent (bare test
  /// fixtures). Increments are striped relaxed atomics — legal on the
  /// ARU_HOT_PATH rpc root.
  telemetry::Counter* met_tx_ = nullptr;          ///< aru_net_tx_bytes_total
  telemetry::Counter* met_rx_ = nullptr;          ///< aru_net_rx_bytes_total
  telemetry::Counter* met_reconnects_ = nullptr;  ///< aru_net_reconnects_total
  telemetry::Histogram* met_rpc_ = nullptr;       ///< aru_net_rpc_latency_ns
  /// Pipelined-put series (registered only when the window is enabled):
  /// window occupancy (puts and payload bytes), one flush counter per
  /// reason, and frames-per-flush.
  telemetry::Gauge* met_window_ = nullptr;          ///< aru_net_put_window
  telemetry::Gauge* met_window_bytes_ = nullptr;    ///< aru_net_put_window_bytes
  telemetry::Counter* met_flush_window_ = nullptr;  ///< aru_net_put_flush_total{reason=window}
  telemetry::Counter* met_flush_bytes_ = nullptr;   ///< …{reason=bytes}
  telemetry::Counter* met_flush_age_ = nullptr;     ///< …{reason=age}
  telemetry::Counter* met_flush_explicit_ = nullptr;  ///< …{reason=explicit}
  telemetry::Histogram* met_batch_ = nullptr;       ///< aru_net_put_batch_frames
};

}  // namespace stampede::net
