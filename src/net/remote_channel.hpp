/// \file remote_channel.hpp
/// \brief The two halves of a cross-process channel: the client-side
///        `RemoteChannel` proxy and the server-side `ChannelServer`
///        skeleton.
///
/// A pipeline spans processes by placing the real `Channel` in one process
/// and exporting it through a `ChannelServer`; peers in other processes
/// wire a `RemoteChannel` into their own `Runtime` via the same
/// `connect()` calls used for local buffers, so task bodies are oblivious
/// to the process boundary.
///
///   front process                         back process
///   ─────────────                         ────────────
///   digitizer ──put──▶ RemoteChannel ══TCP══▶ ChannelServer ──▶ Channel
///                        ◀── PutAck{summary-STP, backwardSTP} ──┘
///
/// Endpoint slots are agreed out of band: the server pre-registers
/// `remote_producers`/`remote_consumers` pseudo-nodes on the channel at
/// construction (graph wiring must finish before `Runtime::start`), and a
/// client claims slot k by sending `producer_key=k` / `consumer_key=k` in
/// its Hello. Reconnecting with the same key resumes the same consumer
/// cursor and feedback slot.
///
/// Consumer proxies of one remote channel in one process share the
/// replicas they fetch through a ReplicaShare: each item crosses the wire
/// and is materialized once per process, however many local tasks read
/// it. Cursors, skips and feedback stay per consumer on the server.
///
/// Failure semantics: see RemoteEndpoint (runtime/remote.hpp). The proxy
/// holds the last summary-STP received over the wire in an atomic, so a
/// producer paced by ARU keeps its period through an outage instead of
/// free-running into a doomed-to-drop frenzy.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "runtime/remote.hpp"
#include "runtime/runtime.hpp"
#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace stampede::net {

// ---------------------------------------------------------------------------
// Client proxy
// ---------------------------------------------------------------------------

/// The newest replica that any of a set of sibling consumer proxies
/// fetched from one served channel. Before each get a proxy pins the
/// slot's replica and names its origin id in the request; when the
/// server's pick for that consumer is the same item, the reply carries no
/// payload and the proxy returns the pinned replica. The slot keeps only a
/// weak reference, so no item lives longer than its consumers hold it.
/// The epoch (the server's HelloAck `server_epoch`) names the id space the
/// origin id belongs to: a restarted server reuses item ids.
class ReplicaShare {
 public:
  struct Pin {
    std::shared_ptr<const Item> item;  ///< null = nothing to offer
    std::uint64_t origin_id = 0;       ///< the item's id on the server (0 = none)
  };

  /// The slot's replica if it is still alive, was fetched under `epoch`
  /// (never for epoch 0, i.e. no live link) and is newer than `after`.
  /// A consumer passes the ts of the last item it returned: its cursor
  /// never returns that item or an older one, so pinning it would only
  /// keep it alive through the get.
  ARU_HOT_PATH Pin pin(std::uint64_t epoch, Timestamp after) const EXCLUDES(mu_);

  /// Offers a freshly materialized replica. It replaces the slot's entry
  /// unless that entry is alive, from the same epoch and newer.
  ARU_HOT_PATH void publish(const std::shared_ptr<const Item>& item, std::uint64_t epoch,
                            std::uint64_t origin_id) EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_{util::LockRank::kNetShare, "net.replica_share"};
  std::weak_ptr<const Item> item_ GUARDED_BY(mu_);
  std::uint64_t epoch_ GUARDED_BY(mu_) = 0;
  std::uint64_t origin_id_ GUARDED_BY(mu_) = 0;
  Timestamp ts_ GUARDED_BY(mu_) = kNoTimestamp;
};

struct RemoteChannelConfig {
  /// Channel name as served by the remote ChannelServer.
  std::string name;
  /// Server address + connection tuning.
  TransportConfig transport;
  /// Producer slot claimed on the remote channel (-1 = this proxy never
  /// puts). Slots are 0..remote_producers-1 on the serving side.
  std::int32_t producer_key = -1;
  /// Consumer slot claimed on the remote channel (-1 = never gets).
  std::int32_t consumer_key = -1;
  /// Local virtual cluster node that received item copies are charged to.
  int cluster_node = 0;
  /// Replica slot shared with the other consumer proxies of this channel
  /// in this process. Null gives the proxy a private slot, which never
  /// hits: a consumer's cursor never returns an item it has already seen.
  std::shared_ptr<ReplicaShare> share;
};

class RemoteChannel final : public RemoteEndpoint {
 public:
  /// Registers the proxy as a graph node in `rt` (call before rt.start()).
  /// Connection establishment is lazy — construction never touches the
  /// network, so wiring order and server startup order are independent.
  RemoteChannel(Runtime& rt, RemoteChannelConfig config);

  /// Unregisters the live-telemetry /status section (the registry may
  /// outlive this proxy).
  ~RemoteChannel() override;

  // -- RemoteEndpoint ---------------------------------------------------------

  ARU_HOT_PATH PutResult put(std::shared_ptr<Item> item, std::stop_token st) override;
  ARU_HOT_PATH GetResult get_latest(Nanos consumer_summary, Timestamp guarantee,
                                    std::stop_token st) override;
  NodeId id() const override { return node_; }
  const std::string& name() const override { return config_.name; }

  /// Flushes staged pipelined puts and blocks until every in-flight put
  /// is acked (no-op on sync links). True when fully drained. Call before
  /// asserting on remote channel contents in tests, or at orderly
  /// producer teardown.
  bool drain_puts(std::stop_token st = {});

  // -- introspection (tests / diagnostics) ------------------------------------

  /// Last summary-STP received over the wire (kUnknownStp before any).
  /// This is the value producers pace against while the link is down.
  Nanos summary() const { return Nanos{summary_ns_.load(std::memory_order_relaxed)}; }

  /// Items dropped locally because the link was down.
  std::int64_t drops() const { return drops_.load(std::memory_order_relaxed); }

  /// Unacked pipelined puts this proxy still holds (0 without a put link).
  std::size_t puts_in_flight() const {
    return put_link_ ? put_link_->puts_in_flight() : 0;
  }

  /// Put-link recoveries (see Transport::reconnects).
  std::int64_t reconnects() const;

  bool connected() const;

  /// This proxy's replica slot (null for a proxy that never gets).
  const ReplicaShare* share() const { return share_.get(); }

 private:
  void hold_summary(Nanos summary);

  RunContext& ctx_;
  RemoteChannelConfig config_;
  NodeId node_ = kNoNode;

  /// Separate links (and trace shards) for the two directions, so a
  /// blocking get parked on the server never head-of-line-blocks puts.
  /// Each transport is driven by exactly one task thread (its shard's
  /// single writer): the producer owns put_link_, the consumer get_link_.
  std::unique_ptr<Transport> put_link_;
  std::unique_ptr<Transport> get_link_;
  stats::Shard* put_shard_ = nullptr;  ///< written only by the putting thread
  stats::Shard* get_shard_ = nullptr;  ///< written only by the getting thread
  std::shared_ptr<ReplicaShare> share_;  ///< set iff get_link_ is
  Timestamp last_get_ts_ = kNoTimestamp;  ///< written only by the getting thread

  std::atomic<std::int64_t> summary_ns_{aru::kUnknownStp.count()};
  std::atomic<std::int64_t> drops_{0};

  /// Handle of the "link:<name>" /status section (0 = none registered).
  std::uint64_t status_handle_ = 0;
};

// ---------------------------------------------------------------------------
// Server skeleton
// ---------------------------------------------------------------------------

/// One channel exported by a ChannelServer.
struct ServedChannel {
  Channel* channel = nullptr;
  /// Producer slots reserved for remote peers (Hello producer_key range).
  int remote_producers = 0;
  /// Consumer slots reserved for remote peers (Hello consumer_key range).
  int remote_consumers = 0;
};

struct ServerConfig {
  /// Local address to bind. Loopback-only by default; set to a concrete
  /// interface address (or "0.0.0.0" for all interfaces) to let off-host
  /// peers attach.
  std::string host = "127.0.0.1";
  /// TCP port to listen on; 0 picks an ephemeral port (read via port()).
  std::uint16_t port = 0;
  /// Idle/heartbeat cadence: while a connection has nothing to send, a
  /// heartbeat goes out at least this often so clients can tell a slow
  /// channel from a dead server.
  Nanos heartbeat_interval = millis(100);
  /// Poll period while a get waits for the channel to become ready.
  Nanos poll_interval = millis(1);
  /// Per-frame send/receive budget (mirror of TransportConfig::io_timeout).
  Nanos io_timeout = seconds(1);
};

/// Serves local channels to remote RemoteChannel proxies. One accept
/// thread plus one thread per live connection; connection threads drive
/// the channel with the peer's identity, so the channel-side feedback
/// fold, GC guarantees, and trace events all happen exactly as they would
/// for a local peer.
class ChannelServer {
 public:
  /// Registers remote producer/consumer pseudo-nodes on every served
  /// channel (must run during graph construction, before rt.start()).
  ChannelServer(Runtime& rt, std::vector<ServedChannel> channels,
                ServerConfig config = {});
  ~ChannelServer();

  ChannelServer(const ChannelServer&) = delete;
  ChannelServer& operator=(const ChannelServer&) = delete;

  /// Binds, listens, and spawns the accept loop. Throws std::runtime_error
  /// if the port cannot be bound.
  void start() EXCLUDES(mu_);

  /// Closes the listener and all connections, joins all threads.
  /// Idempotent.
  void stop() EXCLUDES(mu_);

  /// Bound port (valid after start(); resolves port 0 to the ephemeral
  /// port actually bound).
  std::uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Connections accepted so far (diagnostics/tests).
  std::int64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }

  /// This instance's item-id space, advertised in every HelloAck.
  std::uint64_t epoch() const { return epoch_; }

 private:
  /// Per-producer-slot duplicate-suppression state (wire v3). A producer
  /// transport replays its unacked window tail after every reconnect; the
  /// server keeps the highest settled sequence per (slot, session) and
  /// skips anything at or below it, so replays are at-most-once on the
  /// channel. A new session (new transport instance reusing the slot)
  /// resets the watermark to its advertised start_seq - 1. Atomics because
  /// a dying connection's thread may still be draining while its
  /// replacement attaches.
  struct ProducerSeq {
    std::atomic<std::uint64_t> session{0};
    std::atomic<std::uint64_t> last_seq{0};
  };

  struct Served {
    Channel* channel = nullptr;
    /// producer_key → pseudo-node registered for that remote producer.
    std::vector<NodeId> producer_nodes;
    /// producer_key → dup-suppression watermark (size producer_nodes).
    std::unique_ptr<ProducerSeq[]> producer_seq;
    /// consumer_key → channel consumer index.
    std::vector<int> consumer_idx;
    /// Successful attaches per endpoint slot (producer keys first, then
    /// consumer keys). A second attach to a slot means the peer
    /// re-dialed — the server-side view of a link recovery.
    std::unique_ptr<std::atomic<std::int64_t>[]> slot_attaches;
    /// producer_key → live summary-STP gauge for that remote producer
    /// thread (the value piggy-backed on its put acks). Null entries when
    /// the runtime has no registry.
    std::vector<telemetry::Gauge*> producer_stp;
  };

  /// State shared between a connection thread and the accept loop's
  /// reaper. `done` is the thread's last store; once it reads true the
  /// thread writes nothing further, so joining is instant and the shard
  /// (if one was ever attached) is safe to hand to a new connection.
  struct ConnState {
    std::atomic<bool> done{false};
    stats::Shard* shard = nullptr;  ///< set once by the connection thread
  };

  /// One connection thread plus the state the reaper inspects.
  struct Conn {
    std::jthread thread;
    std::shared_ptr<ConnState> state;
  };

  void accept_loop(TcpListener listener, std::stop_token st);
  void serve_connection(TcpStream stream, ConnState& state, std::stop_token st);

  /// Handles one attached connection after a successful Hello. `shard` is
  /// owned by this connection's thread. Hot-path root: this loop serves
  /// every put ack and get reply, so the STP piggyback must not allocate.
  ARU_HOT_PATH void serve_attached(TcpStream& stream, const Served& served,
                                   const HelloMsg& hello, stats::Shard* shard,
                                   std::stop_token st);

  /// Joins and erases finished connection threads, returning their shards
  /// to the free pool. Runs on every accept-loop tick so reconnect churn
  /// (clients dying and re-dialing for hours) cannot accumulate exited
  /// threads or per-connection shards without bound.
  void reap_finished_locked() REQUIRES(mu_);

  /// Pops a recycled shard or allocates a fresh one.
  stats::Shard* acquire_shard() EXCLUDES(mu_);

  const Served* find(const std::string& name) const;

  Runtime& rt_;
  RunContext& ctx_;
  const ServerConfig config_;
  const std::uint64_t epoch_ = random_wire_id();
  std::vector<Served> served_;

  /// Guards the lifecycle flags + connection-thread registry across
  /// start/stop and the accept loop (the listener itself is owned by the
  /// accept thread). Rank kNet: connection threads acquire channel locks
  /// (kBuffer) while serving, never the reverse.
  mutable util::Mutex mu_{util::LockRank::kNet, "net.server"};
  std::jthread accept_thread_ GUARDED_BY(mu_);
  std::vector<Conn> conns_ GUARDED_BY(mu_);
  /// Shards of reaped connections, reused by later connections (the old
  /// owner thread has exited, so single-writer discipline is preserved).
  std::vector<stats::Shard*> free_shards_ GUARDED_BY(mu_);
  bool started_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;

  std::atomic<std::uint16_t> port_{0};
  std::atomic<std::int64_t> accepted_{0};

  /// Server-side connection series (null when the runtime has no live
  /// registry). Registered at construction, incremented on the cold
  /// attach path only.
  telemetry::Counter* met_connections_ = nullptr;
  telemetry::Counter* met_reconnects_ = nullptr;
  /// Puts settled per coalesced ack (1 = sync client / idle link).
  telemetry::Histogram* met_ack_coalesced_ = nullptr;
};

}  // namespace stampede::net
