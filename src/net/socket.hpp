/// \file socket.hpp
/// \brief Thin RAII wrappers over POSIX TCP sockets.
///
/// This is the *only* translation unit in the tree allowed to touch raw
/// `::socket` / `::connect` (enforced by scripts/lint.sh); everything else
/// goes through TcpStream / TcpListener. Design points:
///
///  * all sockets are nonblocking; every operation takes an explicit
///    timeout and is realized as a poll() loop, so a wedged peer can never
///    hang a runtime thread indefinitely;
///  * connect is the classic nonblocking three-step (O_NONBLOCK +
///    EINPROGRESS, poll for POLLOUT, read SO_ERROR);
///  * sends use MSG_NOSIGNAL — a dead peer yields kClosed, never SIGPIPE;
///  * EINTR is retried everywhere.
///
/// These wrappers hold no locks and no runtime state; synchronization and
/// reconnect policy live one layer up in net::Transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/static_annotations.hpp"
#include "util/time.hpp"

namespace stampede::net {

/// Outcome of a timed socket operation.
enum class IoStatus : std::uint8_t {
  kOk,       ///< full transfer completed
  kTimeout,  ///< deadline elapsed before completion
  kClosed,   ///< orderly peer shutdown (EOF) or EPIPE/ECONNRESET
  kError,    ///< any other socket error
};

const char* to_string(IoStatus s);

/// Owning file-descriptor handle (close-on-destroy, move-only).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { reset(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.release()) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void reset();

 private:
  int fd_ = -1;
};

/// A connected, nonblocking TCP stream.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(Socket sock) : sock_(std::move(sock)) {}

  /// Nonblocking connect to host:port bounded by `timeout`. Returns an
  /// empty optional on failure (refused, unreachable, timed out); `*err`
  /// gets a diagnostic when non-null.
  ARU_MAY_BLOCK ARU_ALLOCATES
  ARU_ANALYZE_ESCAPE("deadline-bounded nonblocking connect: three-step O_NONBLOCK + poll(POLLOUT) + SO_ERROR under one deadline")
  static std::optional<TcpStream> connect(
      const std::string& host, std::uint16_t port, Nanos timeout,
      std::string* err = nullptr);

  bool valid() const { return sock_.valid(); }
  void close() { sock_.reset(); }

  /// Sends the whole buffer or fails. kTimeout applies to overall progress:
  /// the deadline is `timeout` from the call, not per chunk.
  ARU_MAY_BLOCK ARU_ANALYZE_ESCAPE("deadline-bounded nonblocking socket I/O: poll() with an absolute deadline, never an unbounded wait")
  IoStatus send_all(std::span<const std::byte> data, Nanos timeout);

  /// Scatter-gather variant: sends the concatenation of `bufs` (in order)
  /// under one deadline without copying them into a contiguous staging
  /// buffer. Realized as `sendmsg` with an iovec per buffer — a frame's
  /// header+envelope and its payload go out in a single syscall in the
  /// common case, with partial progress advancing the iovec array across
  /// retries. Same contract as send_all: kOk means every byte of every
  /// buffer was sent; anything else leaves the stream desynchronized
  /// mid-frame and the connection must be dropped. Empty spans are fine.
  ARU_MAY_BLOCK ARU_ANALYZE_ESCAPE("deadline-bounded nonblocking socket I/O: sendmsg under one poll() deadline")
  IoStatus send_vec(std::span<const std::span<const std::byte>> bufs, Nanos timeout);

  /// Receives exactly `out.size()` bytes or fails. A timeout with zero
  /// bytes read is a clean kTimeout; a timeout mid-message is also
  /// kTimeout but leaves the stream desynchronized — callers must treat
  /// any non-kOk mid-frame result as fatal for the connection.
  ARU_MAY_BLOCK ARU_ANALYZE_ESCAPE("deadline-bounded nonblocking socket I/O: recv under one poll() deadline")
  IoStatus recv_exact(std::span<std::byte> out, Nanos timeout);

  /// Receives *up to* `out.size()` bytes: waits for readability, then
  /// performs one recv and returns however many bytes arrived in
  /// `*n_read` (possibly fewer than requested). For variable-length
  /// peers — e.g. an HTTP request head whose size is unknown up front —
  /// where recv_exact's fixed-size contract cannot apply. kOk with
  /// `*n_read > 0` on data; kClosed on EOF; kTimeout if nothing arrived
  /// before the deadline.
  ARU_MAY_BLOCK ARU_ANALYZE_ESCAPE("deadline-bounded nonblocking socket I/O: single recv after poll() under one deadline")
  IoStatus recv_some(std::span<std::byte> out, std::size_t* n_read, Nanos timeout);

  /// Scatter-gather variant of recv_some: waits for readability, performs
  /// one `readv` across `bufs` (filled in order), and reports the total
  /// bytes received in `*n_read`. Lets a payload read also prefetch the
  /// bytes of whatever frames follow it in the kernel buffer — iovec[0]
  /// points at the payload destination, iovec[1] at a decode buffer's
  /// free tail — without an extra syscall. Empty spans are skipped.
  ARU_MAY_BLOCK ARU_ANALYZE_ESCAPE("deadline-bounded nonblocking socket I/O: single readv after poll() under one deadline")
  IoStatus recv_vec(std::span<const std::span<std::byte>> bufs, std::size_t* n_read,
                    Nanos timeout);

  /// True once the peer has hung up (POLLHUP/POLLERR or pending EOF).
  /// Non-destructive: does not consume buffered data.
  ARU_ANALYZE_ESCAPE("zero-timeout poll() + MSG_PEEK recv on a nonblocking fd: a readiness probe, never a wait")
  bool peer_hup() const;

  /// Bytes written on this stream that the peer's TCP has not yet
  /// acknowledged (SIOCOUTQ); 0 on a closed stream. Once it reads 0,
  /// everything sent sits in the peer's receive queue — a delivery probe
  /// for scripted-peer tests that must know a frame has arrived before
  /// the peer next looks.
  std::size_t unacked_bytes() const;

  /// Waits up to `timeout` for the stream to become readable (data or
  /// EOF). False on timeout.
  ARU_MAY_BLOCK ARU_ANALYZE_ESCAPE("deadline-bounded readiness poll") bool readable(
      Nanos timeout) const;

 private:
  Socket sock_;
};

/// Fixed-capacity buffered writer over a TcpStream — the batching half of
/// the pipelined wire protocol. Small frames (envelopes, coalesced acks)
/// are copied into one contiguous staging area and go out in a single
/// `sendmsg` flush; large payload tails stay zero-copy by riding the same
/// flush as trailing iovecs (`flush_with`). This class is the only legal
/// caller of `TcpStream::send_vec` (enforced by the send-vec lint rule):
/// routing every send through one buffer is what guarantees frames can
/// never interleave mid-stream.
///
/// Failure contract mirrors send_vec: any non-kOk flush leaves the stream
/// desynchronized mid-frame, the connection must be dropped, and the
/// buffer is cleared either way (retransmission is the transport window's
/// job, from re-encoded frames — never from stale staged bytes).
class SendBuffer {
 public:
  /// Staging capacity. Sized for dozens of max-size envelopes per flush;
  /// allocated once at construction so the append path never allocates.
  static constexpr std::size_t kCapacity = std::size_t{64} * 1024;

  ARU_ALLOCATES SendBuffer() : buf_(kCapacity) {}

  bool empty() const { return len_ == 0; }
  std::size_t size() const { return len_; }
  std::size_t capacity_left() const { return buf_.size() - len_; }

  /// Copies `data` into the staging area. False when it does not fit —
  /// the caller must flush first (never a partial append).
  ARU_HOT_PATH bool append(std::span<const std::byte> data);

  /// Sends everything staged in one scatter/gather call and clears.
  ARU_MAY_BLOCK ARU_ANALYZE_ESCAPE("deadline-bounded: one send_vec under the caller's timeout")
  IoStatus flush(TcpStream& stream, Nanos timeout);

  /// Sends staged bytes + `frame` + `payload` in ONE sendmsg and clears.
  /// The zero-copy large-payload path: earlier small frames batch with
  /// this frame's header/envelope while the payload goes straight from
  /// the item's slab.
  ARU_MAY_BLOCK ARU_ANALYZE_ESCAPE("deadline-bounded: one send_vec under the caller's timeout")
  IoStatus flush_with(TcpStream& stream, std::span<const std::byte> frame,
                      std::span<const std::byte> payload, Nanos timeout);

  void clear() { len_ = 0; }

 private:
  std::vector<std::byte> buf_;
  std::size_t len_ = 0;
};

/// Fixed-capacity buffered reader — the burst-decode half of the
/// pipelined protocol. One recv_some refills the buffer with however many
/// frames the kernel has queued; the decode loop then consumes complete
/// header+envelope frames straight out of `view()` without further
/// syscalls. Payload tails larger than what is buffered are read with
/// `TcpStream::recv_vec` (payload destination + this buffer's free tail),
/// so even a payload read prefetches the next frames.
class RecvBuffer {
 public:
  static constexpr std::size_t kCapacity = std::size_t{64} * 1024;

  ARU_ALLOCATES RecvBuffer() : buf_(kCapacity) {}

  std::size_t buffered() const { return len_ - pos_; }

  /// Unconsumed bytes, in arrival order.
  std::span<const std::byte> view() const { return {buf_.data() + pos_, len_ - pos_}; }

  /// Marks the first `n` unconsumed bytes as decoded. `n` ≤ buffered().
  ARU_HOT_PATH void consume(std::size_t n) { pos_ += n; }

  /// Free space after the unconsumed bytes, compacting first when the
  /// consumed prefix is hogging the front of the buffer.
  std::span<std::byte> tail();

  /// Declares `n` bytes (received externally, e.g. via recv_vec) appended
  /// to the space `tail()` returned.
  void commit(std::size_t n) { len_ += n; }

  /// One recv_some into tail(): kOk means buffered() grew. kTimeout with
  /// nothing read is clean; kClosed is peer EOF.
  ARU_MAY_BLOCK ARU_ANALYZE_ESCAPE("deadline-bounded: one recv_some under the caller's timeout")
  IoStatus fill(TcpStream& stream, Nanos timeout);

  void clear() {
    pos_ = 0;
    len_ = 0;
  }

 private:
  void compact();

  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;  ///< first unconsumed byte
  std::size_t len_ = 0;  ///< first free byte
};

/// A listening TCP socket. Binds loopback-only (127.0.0.1) by default;
/// pass an explicit local address — "0.0.0.0" for all interfaces — to
/// accept off-host peers.
class TcpListener {
 public:
  /// Binds `host`:`port` and listens; port 0 picks an ephemeral port
  /// (read it back via `port()`). `host` must be a dotted-quad IPv4
  /// address of a local interface. Empty optional on failure.
  static std::optional<TcpListener> listen(const std::string& host, std::uint16_t port,
                                           std::string* err = nullptr);

  /// Loopback-only convenience overload (binds 127.0.0.1).
  static std::optional<TcpListener> listen(std::uint16_t port, std::string* err = nullptr);

  bool valid() const { return sock_.valid(); }
  std::uint16_t port() const { return port_; }
  void close() { sock_.reset(); }

  /// Waits up to `timeout` for one inbound connection. Empty optional on
  /// timeout, listener close, or error.
  ARU_MAY_BLOCK std::optional<TcpStream> accept(Nanos timeout);

 private:
  TcpListener(Socket sock, std::uint16_t port) : sock_(std::move(sock)), port_(port) {}

  Socket sock_;
  std::uint16_t port_ = 0;
};

}  // namespace stampede::net
