/// \file recorder.hpp
/// \brief Low-overhead, sharded trace recorder.
///
/// Writers obtain a `Shard` handle during graph construction; each shard is
/// only ever written under its owner's serialization domain (a task's own
/// thread, or — for channels — a dedicated stats mutex so event appends
/// happen outside the channel's data-plane lock), so appends are lock-free
/// for the shard itself. Item frees can
/// happen on any thread (last shared_ptr release), so they go through a
/// dedicated mutex-protected shard. `merge()` collects and time-sorts
/// everything into a `Trace` after the run.
///
/// A shard stores its records encoded, not as `Event`/`ItemRecord` structs:
/// zigzag varints, with times, timestamps, ids and nodes as deltas from the
/// shard's previous record, in blocks (256 B doubling to 64 KiB) that are
/// never reallocated or zero-filled (docs/ARCHITECTURE.md, "Trace
/// recording").
/// The encoding is private to this file and recorder.cpp; `merge()`
/// decodes it back into exactly the records that were written.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stats/events.hpp"
#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace stampede::stats {

class Recorder;

/// Append-only encoded record stream owned by one serialization domain.
class Shard {
 public:
  /// Size of a storage block. A shard's first block is kFirstBlockBytes
  /// and each next one doubles up to kBlockBytes, so a shard that
  /// records little holds little. A record never straddles two blocks
  /// (a long lineage continues id by id in the next one).
  static constexpr std::size_t kFirstBlockBytes = 256;
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  /// `block_bytes` is the owning recorder's running total of block bytes
  /// (one relaxed add per block opened).
  explicit Shard(std::atomic<std::int64_t>* block_bytes) : block_bytes_(block_bytes) {}
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("trace plane: encodes into the shard's current block, opening a new one (256 B doubling to 64 KiB) only when it is full; runs outside data-plane locks (kBufferStats/kNetStats rank below kBuffer/kNet)")
  void record(const Event& e);

  /// Records `rec` with its own lineage.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("trace plane: encodes into the shard's current block, opening a new one (256 B doubling to 64 KiB) only when it is full")
  void record_item(const ItemRecord& rec) { record_item(rec, rec.lineage); }

  /// Records `rec`'s fixed fields with `lineage` in place of
  /// `rec.lineage` (which is ignored), so a caller holding the ids
  /// elsewhere need not copy them into the record.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("trace plane: encodes into the shard's current block, opening a new one (256 B doubling to 64 KiB) only when it is full")
  void record_item(const ItemRecord& rec, std::span<const ItemId> lineage);

 private:
  friend class Recorder;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t used = 0;  ///< valid bytes; the last block's is pos_
  };

  /// Guarantees `bytes` writable bytes at pos_, opening a new block if
  /// the current one has fewer left.
  void make_room(std::size_t bytes) {
    if (static_cast<std::size_t>(end_ - pos_) < bytes) open_block();
  }
  void open_block();

  /// Appends every record to `trace` in the order it was written.
  void decode_into(Trace& trace) const;

  std::atomic<std::int64_t>* block_bytes_;
  std::vector<Block> blocks_;
  std::byte* pos_ = nullptr;  ///< write position in blocks_.back()
  std::byte* end_ = nullptr;  ///< end of blocks_.back()
  std::size_t events_ = 0;
  std::size_t items_ = 0;

  /// Delta bases: the previous event's fields and the previous item
  /// record's. The writer and the decoder both start from zero.
  struct Last {
    std::int64_t node = 0;
    std::int64_t ts = 0;
    ItemId item = 0;
    std::int64_t t = 0;
    ItemId id = 0;
    std::int64_t item_ts = 0;
    std::int64_t t_alloc = 0;
  };
  Last last_;
};

/// Owns all shards; hands out handles and merges them postmortem.
class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Creates a shard for one writer domain. Must be called during
  /// construction (not concurrently with recording).
  Shard* new_shard();

  /// Registers a node's display name (node ids are dense, assigned by the
  /// runtime graph).
  void set_node_name(NodeRef node, std::string name);

  /// Thread-safe recording path for events that can fire on any thread
  /// (item destructors).
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("trace plane: mutex-protected shard append (rank kRecorder, above every data-plane rank)")
  void record_any_thread(const Event& e);

  /// Allocates a fresh globally unique item id (thread-safe).
  ItemId next_item_id() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }

  /// Thread-safe run-progress counter (used by Runtime::wait_emits).
  void count_emit() { emits_.fetch_add(1, std::memory_order_relaxed); }
  std::int64_t emits() const { return emits_.load(std::memory_order_relaxed); }

  /// Bytes of storage blocks held by all shards (thread-safe).
  std::int64_t block_bytes() const { return block_bytes_.load(std::memory_order_relaxed); }

  /// Merges all shards into one time-sorted trace. Call only after all
  /// writer threads have stopped. `t_begin`/`t_end` bound the observation
  /// window (clock instants).
  Trace merge(std::int64_t t_begin, std::int64_t t_end) const;

 private:
  std::atomic<std::int64_t> block_bytes_{0};
  /// Rank kRecorder: acquired from Item destructors, which can run under
  /// a channel/queue lock (same-timestamp overwrite path) — so it must
  /// rank above kBuffer.
  mutable util::Mutex mu_{util::LockRank::kRecorder, "recorder.mu"};
  /// Guards the shard *registry*. Shard contents are written lock-free by
  /// their single owner; merge() reads them only after all writers joined
  /// (the happens-before edge is the thread join in Runtime::stop()).
  std::vector<std::unique_ptr<Shard>> shards_ GUARDED_BY(mu_);
  Shard any_thread_shard_ GUARDED_BY(mu_){&block_bytes_};
  std::vector<std::string> node_names_ GUARDED_BY(mu_);
  std::atomic<ItemId> next_id_{0};
  std::atomic<std::int64_t> emits_{0};
};

}  // namespace stampede::stats
