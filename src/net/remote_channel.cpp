#include "net/remote_channel.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "runtime/item.hpp"
#include "util/log.hpp"

namespace stampede::net {
namespace {

/// Slice for the server's "anything to read?" poll; short enough that
/// stop requests and heartbeat deadlines are honored promptly.
constexpr Nanos kServeSlice = millis(20);
/// Accept-loop poll slice.
constexpr Nanos kAcceptSlice = millis(50);

/// Credits advertised for an unbounded channel: effectively "send at
/// will" (the client clamps to its own window size anyway).
constexpr std::uint32_t kUnboundedCredits = 1u << 16;

/// Ack-coalescing cap: even mid-burst, a cumulative ack goes out at
/// least every this many puts so the producer's window and credit view
/// keep advancing.
constexpr std::int64_t kMaxCoalescedPuts = 32;

/// Byte companion to kMaxCoalescedPuts: settle the pending ack once this
/// much payload has been consumed since the last one, even mid-burst. At
/// frame-scale payloads the count bound alone acks far too lazily — the
/// producer's byte-capped window fills and drains in lockstep with a
/// ~window-sized ack cycle instead of streaming; acking every ~1 MiB lets
/// the client top the window up while earlier frames are still in flight.
constexpr std::int64_t kAckCoalescedBytes = 1 << 20;

/// Fills the on-the-wire envelope of an item in place (callers reuse
/// their WireItem, so the attrs vector's capacity persists across
/// messages). The payload bytes are not copied anywhere: the frame
/// announces their size and the caller sends them scatter-gather
/// straight from the item's pooled slab.
ARU_ALLOCATES ARU_ANALYZE_ESCAPE("fills the caller's reused WireItem — attrs capacity persists across messages")
void to_wire(const Item& item, WireItem& wi) {
  wi.ts = item.ts();
  wi.origin_id = item.id();
  wi.produce_cost_ns = item.produce_cost().count();
  wi.attrs.clear();
  wi.attrs.push_back({kTagProducerNode, item.producer()});
  wi.attrs.push_back({kTagClusterNode, item.cluster_node()});
  wi.payload_bytes = static_cast<std::uint32_t>(item.bytes());
}

/// Resets a reused WireItem to the encoded-when-absent shape without
/// giving back the attrs vector's capacity.
void clear_wire_item(WireItem& wi) {
  wi.ts = kNoTimestamp;
  wi.origin_id = 0;
  wi.produce_cost_ns = 0;
  wi.attrs.clear();
  wi.payload_bytes = 0;
}

/// Appends into a reused message vector: after the first message on each
/// thread the capacity persists, so the append is allocation-free.
ARU_ALLOCATES ARU_ANALYZE_ESCAPE("amortized append into a reused message vector whose capacity persists across calls")
void append_nanos(std::vector<Nanos>& v, Nanos n) { v.push_back(n); }

/// Materializes a local Item replica for a received WireItem, accounting
/// the allocation in the trace exactly like TaskContext::make_item (the
/// Item constructor itself handles the memory tracker). The payload is
/// NOT filled in here: the caller receives the wire bytes directly into
/// item->mutable_data() — and if that receive fails, dropping the item
/// records a matching kFree, so the trace stays balanced either way.
ARU_ALLOCATES ARU_ANALYZE_ESCAPE("constructs the consumer-side Item replica (one shared_ptr control block per received item — the ownership handoff itself); its payload slab comes from the pool")
std::shared_ptr<Item> materialize(RunContext& ctx, const WireItem& wi, NodeId producer,
                                  int cluster_node, stats::Shard* shard) {
  auto item = std::make_shared<Item>(ctx, wi.ts, wi.payload_bytes, producer,
                                     cluster_node, std::vector<ItemId>{},
                                     Nanos{wi.produce_cost_ns});
  shard->record(stats::Event{.type = stats::EventType::kAlloc,
                             .node = producer,
                             .ts = wi.ts,
                             .item = item->id(),
                             .t = ctx.now_ns(),
                             .a = static_cast<std::int64_t>(wi.payload_bytes),
                             .b = cluster_node});
  shard->record_item(stats::ItemRecord{
      .id = item->id(),
      .ts = wi.ts,
      .bytes = static_cast<std::int64_t>(wi.payload_bytes),
      .producer = producer,
      .cluster_node = cluster_node,
      .t_alloc = item->t_alloc(),
      .produce_cost = wi.produce_cost_ns,
  }, item->lineage());
  return item;
}

/// Reads one frame's header + envelope (server side; the payload tail, if
/// the header announces one, is the caller's to consume). False on any
/// failure; a non-kOk mid-frame leaves the stream desynchronized, so the
/// caller must drop the connection.
bool read_frame(TcpStream& stream, Nanos timeout, FrameHeader& header,
                EnvelopeBody& body) {
  std::array<std::byte, kHeaderBytes> raw;
  if (stream.recv_exact(raw, timeout) != IoStatus::kOk) return false;
  if (!decode_header(raw, header, nullptr)) return false;
  body.len = header.body_len;  // decode_header capped this at kMaxEnvelopeBytes
  return header.body_len == 0 ||
         stream.recv_exact(body.storage(header.body_len), timeout) == IoStatus::kOk;
}

}  // namespace

// ---------------------------------------------------------------------------
// ReplicaShare
// ---------------------------------------------------------------------------

ReplicaShare::Pin ReplicaShare::pin(std::uint64_t epoch, Timestamp after) const {
  if (epoch == 0) return {};
  const util::MutexLock lock(mu_);
  if (epoch_ != epoch || ts_ <= after) return {};
  Pin p{.item = item_.lock()};
  if (p.item) p.origin_id = origin_id_;
  return p;
}

void ReplicaShare::publish(const std::shared_ptr<const Item>& item, std::uint64_t epoch,
                           std::uint64_t origin_id) {
  if (epoch == 0) return;
  const util::MutexLock lock(mu_);
  if (epoch_ == epoch && ts_ > item->ts() && !item_.expired()) return;
  item_ = item;
  epoch_ = epoch;
  origin_id_ = origin_id;
  ts_ = item->ts();
}

// ---------------------------------------------------------------------------
// RemoteChannel (client proxy)
// ---------------------------------------------------------------------------

RemoteChannel::RemoteChannel(Runtime& rt, RemoteChannelConfig config)
    : ctx_(rt.context()), config_(std::move(config)) {
  if (config_.name.size() > kMaxNameBytes) {
    throw std::invalid_argument("RemoteChannel: channel name exceeds kMaxNameBytes (" +
                                std::to_string(kMaxNameBytes) + "): '" + config_.name +
                                "'");
  }
  node_ = rt.add_remote_node(config_.name, NodeKind::kChannel);
  if (config_.producer_key >= 0) {
    put_shard_ = rt.recorder().new_shard();
    put_link_ = std::make_unique<Transport>(
        ctx_, node_, config_.transport,
        HelloMsg{.channel = config_.name, .producer_key = config_.producer_key},
        put_shard_);
  }
  if (config_.consumer_key >= 0) {
    share_ = config_.share ? config_.share : std::make_shared<ReplicaShare>();
    get_shard_ = rt.recorder().new_shard();
    get_link_ = std::make_unique<Transport>(
        ctx_, node_, config_.transport,
        HelloMsg{.channel = config_.name, .consumer_key = config_.consumer_key},
        get_shard_);
  }
  if (ctx_.metrics != nullptr) {
    // Everything the callback reads is an atomic (transport flags, the
    // held summary, the drop counter), so evaluating it under the
    // registry mutex acquires nothing.
    status_handle_ = ctx_.metrics->add_status(
        "link:" + config_.name, [this]() -> std::string {
          const Nanos held = summary();
          std::string out = "{\"connected_put\":";
          out += put_link_ && put_link_->connected() ? "true" : "false";
          out += ",\"connected_get\":";
          out += get_link_ && get_link_->connected() ? "true" : "false";
          out += ",\"reconnects\":" + std::to_string(reconnects());
          out += ",\"summary_stp_ns\":" +
                 std::to_string(aru::known(held) ? held.count() : 0);
          out += ",\"drops\":" + std::to_string(drops()) + "}";
          return out;
        });
  }
}

RemoteChannel::~RemoteChannel() {
  if (status_handle_ != 0 && ctx_.metrics != nullptr) {
    ctx_.metrics->remove_status(status_handle_);
  }
}

void RemoteChannel::hold_summary(Nanos summary) {
  summary_ns_.store(summary.count(), std::memory_order_relaxed);
}

std::int64_t RemoteChannel::reconnects() const {
  std::int64_t n = 0;
  if (put_link_) n += put_link_->reconnects();
  if (get_link_) n += get_link_->reconnects();
  return n;
}

bool RemoteChannel::connected() const {
  return (put_link_ && put_link_->connected()) || (get_link_ && get_link_->connected());
}

RemoteEndpoint::PutResult RemoteChannel::put(std::shared_ptr<Item> item,
                                             std::stop_token st) {
  if (!put_link_) {
    throw std::logic_error("RemoteChannel::put: no producer_key configured");
  }
  if (!item) throw std::invalid_argument("RemoteChannel::put: null item");

  // Reused per-thread message scratch: encode() consumes it synchronously,
  // so it is free again before the next put on this thread. Keeps the
  // steady-state put path allocation-free (aru-analyze hot rule).
  static thread_local PutMsg msg;
  msg.seq = 0;  // the transport assigns it on the pipelined path
  msg.stp.clear();
  to_wire(*item, msg.item);
  const Nanos held = summary();
  if (aru::known(held)) append_nanos(msg.stp, held);

  if (config_.transport.put_window > 0) {
    // Pipelined path: queue into the transport's in-flight window and
    // return. "Stored" means queued — the window resends across
    // reconnects and the server dup-filters, so a queued item reaches the
    // channel at most once. Pacing feedback comes from the latest
    // coalesced ack instead of a per-item round trip.
    const auto out = put_link_->put_pipelined(msg, item->data(), item, st);
    if (out.status == Transport::RpcStatus::kOk) {
      if (aru::known(out.summary)) hold_summary(out.summary);
      return PutResult{.summary = aru::known(out.summary) ? out.summary : held,
                       .stored = true,
                       .closed = out.closed};
    }
    if (out.status == Transport::RpcStatus::kStopped) {
      return PutResult{.summary = held};
    }
    drops_.fetch_add(1, std::memory_order_relaxed);
    put_shard_->record(stats::Event{.type = stats::EventType::kDrop,
                                    .node = node_,
                                    .ts = item->ts(),
                                    .item = item->id(),
                                    .t = ctx_.now_ns(),
                                    .a = 1});
    return PutResult{.summary = held, .dropped = true, .closed = out.closed};
  }

  // Synchronous path (put_window == 0): one RPC per put. The payload goes
  // out scatter-gather with the envelope, straight from the item's pooled
  // slab (the shared_ptr keeps it alive for the send). A PutAck never
  // carries payload, so no sink.
  const FrameBuf frame = encode(msg);
  EnvelopeBody body;
  const auto status = put_link_->rpc(frame, item->data(), MsgType::kPutAck, body,
                                     /*sink=*/nullptr, /*wait_for_link=*/false, st);

  if (status == Transport::RpcStatus::kOk) {
    static thread_local PutAckMsg ack;  // decode() overwrites every field
    if (decode(body.span(), ack, nullptr)) {
      if (aru::known(ack.summary)) hold_summary(ack.summary);
      return PutResult{.summary = aru::known(ack.summary) ? ack.summary : held,
                       .stored = ack.stored,
                       .closed = ack.closed};
    }
    put_link_->disconnect();  // garbled ack: treat the link as dead
  }
  if (status == Transport::RpcStatus::kStopped) {
    return PutResult{.summary = held};
  }

  // Link down: account the item as a drop (dead on arrival — no put event
  // exists for it anywhere) and report the held summary-STP so the source
  // keeps pacing at the last known downstream rate instead of either
  // stalling or free-running.
  drops_.fetch_add(1, std::memory_order_relaxed);
  put_shard_->record(stats::Event{.type = stats::EventType::kDrop,
                                  .node = node_,
                                  .ts = item->ts(),
                                  .item = item->id(),
                                  .t = ctx_.now_ns(),
                                  .a = 1});
  return PutResult{.summary = held, .dropped = true};
}

bool RemoteChannel::drain_puts(std::stop_token st) {
  if (!put_link_ || config_.transport.put_window == 0) return true;
  return put_link_->flush_puts(std::move(st));
}

RemoteEndpoint::GetResult RemoteChannel::get_latest(Nanos consumer_summary,
                                                    Timestamp guarantee,
                                                    std::stop_token st) {
  if (!get_link_) {
    throw std::logic_error("RemoteChannel::get_latest: no consumer_key configured");
  }
  const Nanos t0 = ctx_.clock->now();
  EnvelopeBody body;

  // Reused across retries and calls: decode() overwrites every field and
  // the stp vector's capacity persists, so the steady-state get path is
  // allocation-free apart from the materialized item itself.
  static thread_local GetReplyMsg reply;
  for (;;) {
    // Offer the newest replica this process holds from the server on the
    // other end of the link. No live link means epoch 0 and no offer.
    const std::uint64_t epoch = get_link_->server_epoch();
    const ReplicaShare::Pin pin = share_->pin(epoch, last_get_ts_);
    const FrameBuf frame = encode(GetMsg{.consumer_summary = consumer_summary,
                                         .guarantee = guarantee,
                                         .have_origin = pin.origin_id});
    std::shared_ptr<Item> item;
    bool decoded = false;
    // Payload-bearing replies decode inside the sink so the wire bytes
    // land directly in a freshly acquired pooled buffer — the transport
    // receives into the span we return, no intermediate copy.
    const PayloadSink sink = [&](const FrameHeader& header,
                                 std::span<const std::byte> env) -> std::span<std::byte> {
      if (!decode(env, reply, nullptr)) return {};
      decoded = true;
      if (!reply.has_item || reply.reuse ||
          reply.item.payload_bytes != header.payload_len) {
        return {};
      }
      item = materialize(ctx_, reply.item, node_, config_.cluster_node, get_shard_);
      return item->mutable_data();
    };
    const auto status = get_link_->rpc(frame, {}, MsgType::kGetReply, body, sink,
                                       /*wait_for_link=*/true, st);
    if (status == Transport::RpcStatus::kStopped) break;
    if (status == Transport::RpcStatus::kDisconnected) continue;  // re-issue

    if (!decoded) {
      // No payload tail announced, so the sink never ran: decode the
      // envelope here. An item envelope claiming payload bytes the frame
      // did not carry is a protocol violation, and so is a reuse reply
      // naming anything but the replica pinned for this request on this
      // server instance.
      if (!decode(body.span(), reply, nullptr) ||
          (reply.has_item && !reply.reuse && reply.item.payload_bytes != 0) ||
          (reply.reuse && (!pin.item || get_link_->server_epoch() != epoch ||
                           reply.item.origin_id != pin.origin_id ||
                           reply.item.ts != pin.item->ts() ||
                           reply.item.payload_bytes != pin.item->bytes()))) {
        get_link_->disconnect();
        continue;
      }
      if (reply.has_item && !reply.reuse) {
        item = materialize(ctx_, reply.item, node_, config_.cluster_node, get_shard_);
      }
    }
    if (aru::known(reply.summary)) hold_summary(reply.summary);
    if (!reply.has_item) {
      if (reply.closed) break;  // remote channel closed and drained
      continue;
    }
    std::shared_ptr<const Item> out = reply.reuse ? pin.item : std::move(item);
    if (!reply.reuse) share_->publish(out, get_link_->server_epoch(), reply.item.origin_id);
    last_get_ts_ = out->ts();
    return GetResult{.item = std::move(out),
                     .blocked = ctx_.clock->now() - t0,
                     .skipped = reply.skipped};
  }
  return GetResult{.item = nullptr, .blocked = ctx_.clock->now() - t0};
}

// ---------------------------------------------------------------------------
// ChannelServer (skeleton)
// ---------------------------------------------------------------------------

ChannelServer::ChannelServer(Runtime& rt, std::vector<ServedChannel> channels,
                             ServerConfig config)
    : rt_(rt), ctx_(rt.context()), config_(std::move(config)) {
  for (const ServedChannel& sc : channels) {
    if (sc.channel == nullptr) {
      throw std::invalid_argument("ChannelServer: null channel");
    }
    if (sc.channel->name().size() > kMaxNameBytes) {
      throw std::invalid_argument(
          "ChannelServer: channel name exceeds kMaxNameBytes (" +
          std::to_string(kMaxNameBytes) + "): '" + sc.channel->name() + "'");
    }
    Served s{.channel = sc.channel};
    s.slot_attaches = std::make_unique<std::atomic<std::int64_t>[]>(
        static_cast<std::size_t>(sc.remote_producers + sc.remote_consumers));
    s.producer_seq = std::make_unique<ProducerSeq[]>(
        static_cast<std::size_t>(sc.remote_producers));
    for (int p = 0; p < sc.remote_producers; ++p) {
      const NodeId n = rt_.add_remote_node(
          sc.channel->name() + ":remote_producer" + std::to_string(p),
          NodeKind::kThread);
      rt_.add_remote_edge(n, sc.channel->id());
      sc.channel->register_producer(n);
      s.producer_nodes.push_back(n);
    }
    for (int c = 0; c < sc.remote_consumers; ++c) {
      const NodeId n = rt_.add_remote_node(
          sc.channel->name() + ":remote_consumer" + std::to_string(c),
          NodeKind::kThread);
      rt_.add_remote_edge(sc.channel->id(), n);
      // Consumer placed on the channel's own cluster node: the simulated
      // transfer model stays out of the way — the real network is the
      // transfer now.
      s.consumer_idx.push_back(
          sc.channel->register_consumer(n, sc.channel->cluster_node()));
    }
    served_.push_back(std::move(s));
  }

  if (ctx_.metrics != nullptr) {
    // One label per server (joined channel names) so two servers in one
    // runtime stay distinct series; the client side of the same family
    // is labelled per link (Transport's {"link", ...}).
    std::string names;
    for (const Served& s : served_) {
      if (!names.empty()) names += ',';
      names += s.channel->name();
    }
    const telemetry::Registry::Labels labels = {{"server", names}};
    met_connections_ = &ctx_.metrics->counter(
        "aru_net_server_connections_total",
        "Connections that attached successfully (Hello acknowledged ok).",
        labels);
    met_reconnects_ = &ctx_.metrics->counter(
        "aru_net_reconnects_total",
        "Successful re-attaches to an endpoint slot already bound once "
        "(server-side link recoveries).",
        labels);
    static constexpr std::array<std::int64_t, 7> kCoalesceBounds = {1, 2, 4,  8,
                                                                    16, 32, 64};
    met_ack_coalesced_ = &ctx_.metrics->histogram(
        "aru_net_ack_coalesced_puts",
        "Puts settled by one coalesced put ack (1 = per-put acking).",
        kCoalesceBounds, labels);
    // Per-remote-producer summary-STP: the same series task threads
    // publish locally, labelled with the producer pseudo-node's name, so
    // a headless spd_node still exposes per-thread feedback values.
    for (Served& s : served_) {
      s.producer_stp.reserve(s.producer_nodes.size());
      for (std::size_t k = 0; k < s.producer_nodes.size(); ++k) {
        std::string task = s.channel->name();
        task += ":remote_producer";
        task += std::to_string(k);
        s.producer_stp.push_back(&ctx_.metrics->gauge(
            "aru_task_summary_stp_ns",
            "Summary-STP this thread node propagates upstream (0 = unknown)",
            {{"task", std::move(task)}}));
      }
    }
  }
}

ChannelServer::~ChannelServer() { stop(); }

const ChannelServer::Served* ChannelServer::find(const std::string& name) const {
  for (const Served& s : served_) {
    if (s.channel->name() == name) return &s;
  }
  return nullptr;
}

void ChannelServer::start() {
  std::string err;
  auto listener = TcpListener::listen(config_.host, config_.port, &err);
  if (!listener) throw std::runtime_error("ChannelServer: listen failed: " + err);

  const util::MutexLock lock(mu_);
  if (started_) throw std::logic_error("ChannelServer: start() called twice");
  started_ = true;
  port_.store(listener->port(), std::memory_order_release);
  accept_thread_ = std::jthread(
      [this, l = std::make_shared<TcpListener>(std::move(*listener))](
          std::stop_token st) { accept_loop(std::move(*l), st); });
}

void ChannelServer::stop() {
  std::jthread accept;
  std::vector<Conn> conns;
  {
    const util::MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    accept = std::move(accept_thread_);
    conns = std::move(conns_);
  }
  accept.request_stop();
  for (auto& c : conns) c.thread.request_stop();
  if (accept.joinable()) accept.join();
  for (auto& c : conns) {
    if (c.thread.joinable()) c.thread.join();
  }
}

void ChannelServer::reap_finished_locked() {
  std::erase_if(conns_, [&](Conn& c) {
    if (!c.state->done.load(std::memory_order_acquire)) return false;
    if (c.thread.joinable()) c.thread.join();  // finished: joins immediately
    if (c.state->shard != nullptr) free_shards_.push_back(c.state->shard);
    return true;
  });
}

stats::Shard* ChannelServer::acquire_shard() {
  {
    const util::MutexLock lock(mu_);
    if (!free_shards_.empty()) {
      stats::Shard* shard = free_shards_.back();
      free_shards_.pop_back();
      return shard;
    }
  }
  return rt_.recorder().new_shard();
}

void ChannelServer::accept_loop(TcpListener listener, std::stop_token st) {
  while (!st.stop_requested()) {
    auto stream = listener.accept(kAcceptSlice);
    const util::MutexLock lock(mu_);
    if (stopped_) break;  // any pending connection dropped by Socket destructor
    reap_finished_locked();
    if (!stream) continue;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    auto state = std::make_shared<ConnState>();
    conns_.push_back(Conn{
        .thread = std::jthread(
            [this, state, s = std::make_shared<TcpStream>(std::move(*stream))](
                std::stop_token cst) {
              serve_connection(std::move(*s), *state, cst);
              state->done.store(true, std::memory_order_release);
            }),
        .state = state});
  }
}

void ChannelServer::serve_connection(TcpStream stream, ConnState& state,
                                     std::stop_token st) {
  // Attach: first frame must be a Hello naming a served channel and
  // claiming valid endpoint slots. A Hello never carries payload.
  FrameHeader header{};
  EnvelopeBody body;
  if (!read_frame(stream, config_.io_timeout, header, body) ||
      header.type != MsgType::kHello || header.payload_len != 0) {
    return;
  }
  HelloMsg hello;
  if (!decode(body.span(), hello, nullptr)) return;

  const Served* served = find(hello.channel);
  HelloAckMsg ack;
  if (served == nullptr) {
    ack.message = "unknown channel '" + hello.channel + "'";
  } else if (hello.producer_key >= 0 &&
             hello.producer_key >= static_cast<std::int32_t>(served->producer_nodes.size())) {
    ack.message = "producer_key out of range";
  } else if (hello.consumer_key >= 0 &&
             hello.consumer_key >= static_cast<std::int32_t>(served->consumer_idx.size())) {
    ack.message = "consumer_key out of range";
  } else {
    ack.ok = true;
    ack.server_epoch = epoch_;
    // Advertise the channel's current slack so a pipelined producer can
    // open its window immediately instead of trickling until the first
    // coalesced ack refreshes the credit view.
    const std::size_t cap = served->channel->capacity();
    const std::size_t size = served->channel->size();
    ack.credits = cap == 0              ? kUnboundedCredits
                  : cap > size          ? static_cast<std::uint32_t>(cap - size)
                                        : 0;
  }
  if (stream.send_all(encode(ack).span(), config_.io_timeout) != IoStatus::kOk) return;
  if (!ack.ok) {
    STAMPEDE_LOG(kWarn) << "net.server: rejected hello: " << ack.message;
    return;
  }

  if (met_connections_ != nullptr) met_connections_->add();
  if (hello.producer_key >= 0 || hello.consumer_key >= 0) {
    const std::size_t slot =
        hello.producer_key >= 0
            ? static_cast<std::size_t>(hello.producer_key)
            : served->producer_nodes.size() +
                  static_cast<std::size_t>(hello.consumer_key);
    if (served->slot_attaches[slot].fetch_add(1, std::memory_order_relaxed) > 0 &&
        met_reconnects_ != nullptr) {
      met_reconnects_->add();
    }
  }

  stats::Shard* shard = acquire_shard();
  state.shard = shard;  // published to the reaper by the done flag
  serve_attached(stream, *served, hello, shard, st);
}

void ChannelServer::serve_attached(TcpStream& stream, const Served& served,
                                   const HelloMsg& hello, stats::Shard* shard,
                                   std::stop_token st) {
  Channel& channel = *served.channel;
  const NodeId chan_node = channel.id();
  std::int64_t last_tx = ctx_.now_ns();

  // Buffered I/O (wire v3): inbound bursts are decoded straight out of
  // `in` — one recv refills it with however many frames the kernel has
  // queued, so a pipelined producer costs nowhere near a syscall per
  // message. Outbound frames leave through `out.flush_with`: envelope from
  // the stack, payload (when present) zero-copy from the served item's
  // pooled slab, one sendmsg per reply.
  SendBuffer out;
  RecvBuffer in;

  auto send_frame = [&](const FrameBuf& frame, std::span<const std::byte> payload,
                        MsgType type) {
    if (out.flush_with(stream, frame.span(), payload, config_.io_timeout) !=
        IoStatus::kOk) {
      return false;
    }
    last_tx = ctx_.now_ns();
    shard->record(stats::Event{
        .type = stats::EventType::kNetTx,
        .node = chan_node,
        .t = last_tx,
        .a = static_cast<std::int64_t>(frame.len + payload.size()),
        .b = static_cast<std::int64_t>(type)});
    return true;
  };
  auto heartbeat_if_due = [&] {
    if (Nanos{ctx_.now_ns() - last_tx} < config_.heartbeat_interval) return true;
    return send_frame(encode(HeartbeatMsg{.t_ns = ctx_.now_ns()}), {},
                      MsgType::kHeartbeat);
  };

  // Receives a put's payload tail: buffered bytes first, then readv with
  // the decode buffer's free tail as the second iovec — the payload read
  // prefetches the frames behind it instead of leaving them for another
  // syscall.
  auto read_payload = [&](std::span<std::byte> dest) -> bool {
    const std::size_t take = std::min(in.buffered(), dest.size());
    if (take > 0) {
      std::memcpy(dest.data(), in.view().data(), take);
      in.consume(take);
    }
    std::size_t got = take;
    while (got < dest.size()) {
      const std::array<std::span<std::byte>, 2> bufs = {dest.subspan(got), in.tail()};
      std::size_t n = 0;
      if (stream.recv_vec(bufs, &n, config_.io_timeout) != IoStatus::kOk) return false;
      const std::size_t to_dest = std::min(n, dest.size() - got);
      got += to_dest;
      if (n > to_dest) in.commit(n - to_dest);
    }
    return true;
  };

  // Duplicate-suppression watermark for this producer slot. A fresh
  // session (new transport instance) resets it to start_seq - 1; a
  // reconnect of the same session keeps it, so replayed window tails are
  // settled-but-skipped.
  ProducerSeq* pseq =
      hello.producer_key >= 0
          ? &served.producer_seq[static_cast<std::size_t>(hello.producer_key)]
          : nullptr;
  if (pseq != nullptr && pseq->session.load(std::memory_order_relaxed) != hello.session) {
    pseq->session.store(hello.session, std::memory_order_relaxed);
    pseq->last_seq.store(hello.start_seq == 0 ? 0 : hello.start_seq - 1,
                         std::memory_order_relaxed);
  }

  // Coalesced-ack state: one PutAckMsg settles every put processed since
  // the last ack (cumulative seq + credits + summary-STP). Emitted when a
  // burst drains, before blocking on backpressure, and at least every
  // kMaxCoalescedPuts so the client's window keeps advancing mid-burst.
  bool ack_pending = false;
  std::int64_t puts_since_ack = 0;
  std::int64_t bytes_since_ack = 0;
  bool last_stored = false;
  Nanos last_summary = channel.summary();

  // Reused per-connection message scratch: decode() and the assignments
  // below overwrite every field, and the stp/attrs vector capacities
  // persist across frames, so the steady-state serve loop — every put ack
  // and get reply, STP piggyback included — is allocation-free apart from
  // materializing received items (aru-analyze hot rule).
  PutMsg put_msg;
  PutAckMsg put_ack;
  GetMsg get_msg;
  GetReplyMsg get_reply;

  auto credits_of = [&]() -> std::uint32_t {
    const std::size_t cap = channel.capacity();
    if (cap == 0) return kUnboundedCredits;
    const std::size_t size = channel.size();
    return cap > size ? static_cast<std::uint32_t>(cap - size) : 0;
  };

  auto emit_put_ack = [&]() -> bool {
    if (!ack_pending) return true;
    put_ack.stored = last_stored;
    put_ack.closed = channel.closed();
    put_ack.summary = last_summary;
    put_ack.cum_seq = pseq != nullptr ? pseq->last_seq.load(std::memory_order_relaxed) : 0;
    put_ack.credits = credits_of();
    channel.backward_stp_into(put_ack.stp);
    if (!served.producer_stp.empty()) {
      served.producer_stp[static_cast<std::size_t>(hello.producer_key)]->set(
          put_ack.summary.count());
    }
    if (met_ack_coalesced_ != nullptr) met_ack_coalesced_->observe(puts_since_ack);
    ack_pending = false;
    puts_since_ack = 0;
    bytes_since_ack = 0;
    return send_frame(encode(put_ack), {}, MsgType::kPutAck);
  };

  while (!st.stop_requested()) {
    if (in.buffered() < kHeaderBytes) {
      // Between frames. If nothing more is in the kernel buffer the burst
      // is over: settle it with one coalesced ack, then wait for data.
      if (!stream.readable(Nanos{0})) {
        if (!emit_put_ack()) return;
        if (!stream.readable(kServeSlice)) {
          if (stream.peer_hup() || !heartbeat_if_due()) return;
          continue;
        }
      }
      if (in.fill(stream, config_.io_timeout) != IoStatus::kOk) return;
      continue;
    }
    FrameHeader header{};
    if (!decode_header(in.view().first(kHeaderBytes), header, nullptr)) return;
    const std::size_t frame_bytes = kHeaderBytes + header.body_len;
    while (in.buffered() < frame_bytes) {
      if (in.fill(stream, config_.io_timeout) != IoStatus::kOk) return;
    }
    if (header.payload_len != 0 && header.type != MsgType::kPut) {
      return;  // protocol violation: only puts carry payload client→server
    }
    shard->record(stats::Event{
        .type = stats::EventType::kNetRx,
        .node = chan_node,
        .t = ctx_.now_ns(),
        .a = static_cast<std::int64_t>(kHeaderBytes + header.body_len +
                                       header.payload_len),
        .b = static_cast<std::int64_t>(header.type)});
    const std::span<const std::byte> body =
        in.view().subspan(kHeaderBytes, header.body_len);

    switch (header.type) {
      case MsgType::kPut: {
        if (hello.producer_key < 0) return;  // protocol violation
        if (!decode(body, put_msg, nullptr)) return;
        in.consume(frame_bytes);  // payload tail is next in the buffer
        if (put_msg.item.payload_bytes != header.payload_len) return;  // lengths disagree
        // Materialize first, then receive the payload tail directly into
        // the pooled slab — the frame-sized staging vector is gone.
        auto item = materialize(
            ctx_, put_msg.item,
            served.producer_nodes[static_cast<std::size_t>(hello.producer_key)],
            channel.cluster_node(), shard);
        if (header.payload_len > 0 && !read_payload(item->mutable_data())) return;
        const bool duplicate =
            put_msg.seq != 0 && pseq != nullptr &&
            put_msg.seq <= pseq->last_seq.load(std::memory_order_relaxed);
        if (duplicate) {
          // Reconnect replay of a put this channel already stored: the
          // payload is consumed (stream stays in sync), the materialized
          // replica is dropped (its alloc/free trace stays balanced), and
          // the cumulative ack settles it again. At-most-once holds.
          ack_pending = true;
          ++puts_since_ack;
          last_stored = true;
        } else {
          // Wait out a full bounded channel here (not in the channel):
          // heartbeats must keep flowing while backpressure holds the ack,
          // and everything already settled is acked *before* blocking so
          // the producer's window can keep advancing.
          std::optional<Channel::PutResult> res;
          while (!(res = channel.try_put(item))) {
            if (!emit_put_ack()) return;
            if (st.stop_requested() || stream.peer_hup() || !heartbeat_if_due()) return;
            ctx_.clock->sleep_for(config_.poll_interval);
          }
          last_stored = res->stored;
          last_summary = res->channel_summary;
          if (put_msg.seq != 0 && pseq != nullptr) {
            pseq->last_seq.store(put_msg.seq, std::memory_order_relaxed);
          }
          ack_pending = true;
          ++puts_since_ack;
        }
        bytes_since_ack += static_cast<std::int64_t>(header.payload_len);
        if ((puts_since_ack >= kMaxCoalescedPuts ||
             bytes_since_ack >= kAckCoalescedBytes) &&
            !emit_put_ack()) {
          return;
        }
        break;
      }
      case MsgType::kGet: {
        if (hello.consumer_key < 0) return;
        if (!decode(body, get_msg, nullptr)) return;
        in.consume(frame_bytes);
        // A connection holding both keys must see its puts settled before
        // the reply (reads-own-writes across one link).
        if (!emit_put_ack()) return;
        const int idx = served.consumer_idx[static_cast<std::size_t>(hello.consumer_key)];
        // Block here (not in the channel) so heartbeats keep flowing and a
        // vanished peer is noticed while we wait for data.
        while (!channel.ready(idx)) {
          if (st.stop_requested() || stream.peer_hup() || !heartbeat_if_due()) return;
          ctx_.clock->sleep_for(config_.poll_interval);
        }
        auto res = channel.get_latest(idx, get_msg.consumer_summary, get_msg.guarantee, st);
        get_reply.has_item = res.item != nullptr;
        // The consumer's process already holds this item: skip the payload.
        get_reply.reuse = res.item != nullptr && get_msg.have_origin != 0 &&
                          res.item->id() == get_msg.have_origin;
        get_reply.closed = channel.closed();
        get_reply.skipped = res.skipped;
        get_reply.summary = channel.summary();
        channel.backward_stp_into(get_reply.stp);
        if (res.item) {
          to_wire(*res.item, get_reply.item);
        } else {
          clear_wire_item(get_reply.item);  // the frame encodes it either way
        }
        // The shared_ptr in `res` keeps the payload slab alive (and
        // un-recycled) for the duration of the scatter-gather send even if
        // the channel overwrites the slot concurrently.
        const std::span<const std::byte> payload =
            res.item && !get_reply.reuse ? res.item->data() : std::span<const std::byte>{};
        if (!send_frame(encode(get_reply), payload, MsgType::kGetReply)) return;
        break;
      }
      case MsgType::kClose:
        emit_put_ack();  // settle the tail of the burst before goodbye
        return;
      case MsgType::kHeartbeat:
        in.consume(frame_bytes);
        break;  // liveness only
      default:
        return;  // protocol violation
    }
  }
}

}  // namespace stampede::net
