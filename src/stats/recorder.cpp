#include "stats/recorder.hpp"

#include <algorithm>
#include <utility>

namespace stampede::stats {

// Shard encoding. Every field is a zigzag LEB128 varint of a 64-bit value
// taken mod 2^64 (so deltas of INT64 extremes wrap and round-trip):
//
//   event:  tag = type, node, ts, item, t (deltas from the previous
//           event), a, b
//   item:   tag = kItemTag, id, ts, t_alloc (deltas from the previous
//           item record), bytes, producer, cluster_node, produce_cost,
//           lineage count, then per lineage id: id - lineage id
//
// A record's fixed part is written into one block; lineage ids each get
// their own room check, so a long lineage continues in the next block.
// The decoder mirrors it: it moves to the next block only at those same
// points, and only when the current block's valid bytes are used up.
namespace {

constexpr std::uint8_t kItemTag = 0xFF;
constexpr std::size_t kMaxVarint = 10;
constexpr std::size_t kMaxEventBytes = 1 + 6 * kMaxVarint;
constexpr std::size_t kMaxItemBytes = 1 + 8 * kMaxVarint;
static_assert(kMaxItemBytes <= Shard::kFirstBlockBytes && kMaxEventBytes <= Shard::kFirstBlockBytes);

std::uint64_t zigzag(std::uint64_t v) { return (v << 1) ^ (0 - (v >> 63)); }
std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

/// Writes zigzag(v) (v read as a signed two's-complement value).
std::byte* put(std::byte* p, std::uint64_t v) {
  v = zigzag(v);
  while (v >= 0x80) {
    *p++ = static_cast<std::byte>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::byte>(v);
  return p;
}

/// Writes `value - last` and advances `last` to `value`.
template <typename T>
std::byte* put_delta(std::byte* p, T value, T& last) {
  p = put(p, static_cast<std::uint64_t>(value) - static_cast<std::uint64_t>(last));
  last = value;
  return p;
}

/// The valid bytes of one block.
struct Range {
  const std::byte* begin;
  const std::byte* end;
};

/// Reads a record stream back across a shard's blocks.
class Reader {
 public:
  explicit Reader(std::vector<Range> blocks) : blocks_(std::move(blocks)) {}

  /// Moves to the next block if this one is used up; false at the end of
  /// the stream.
  bool more() {
    while (p_ == end_) {
      if (next_ == blocks_.size()) return false;
      p_ = blocks_[next_].begin;
      end_ = blocks_[next_].end;
      ++next_;
    }
    return true;
  }

  std::uint8_t tag() { return static_cast<std::uint8_t>(*p_++); }

  std::uint64_t get() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const auto b = static_cast<std::uint8_t>(*p_++);
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (b < 0x80) return unzigzag(v);
    }
  }

  template <typename T>
  T get_delta(T& last) {
    last = static_cast<T>(static_cast<std::uint64_t>(last) + get());
    return last;
  }

 private:
  std::vector<Range> blocks_;
  std::size_t next_ = 0;
  const std::byte* p_ = nullptr;
  const std::byte* end_ = nullptr;
};

}  // namespace

void Shard::open_block() {
  std::size_t size = kFirstBlockBytes;
  if (!blocks_.empty()) {
    std::byte* const begin = blocks_.back().data.get();
    blocks_.back().used = static_cast<std::size_t>(pos_ - begin);
    size = std::min(kBlockBytes, 2 * static_cast<std::size_t>(end_ - begin));
  }
  blocks_.push_back(Block{.data = std::make_unique_for_overwrite<std::byte[]>(size)});
  pos_ = blocks_.back().data.get();
  end_ = pos_ + size;
  block_bytes_->fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
}

void Shard::record(const Event& e) {
  make_room(kMaxEventBytes);
  std::byte* p = pos_;
  *p++ = static_cast<std::byte>(e.type);
  p = put_delta<std::int64_t>(p, e.node, last_.node);
  p = put_delta(p, e.ts, last_.ts);
  p = put_delta(p, e.item, last_.item);
  p = put_delta(p, e.t, last_.t);
  p = put(p, static_cast<std::uint64_t>(e.a));
  p = put(p, static_cast<std::uint64_t>(e.b));
  pos_ = p;
  ++events_;
}

void Shard::record_item(const ItemRecord& rec, std::span<const ItemId> lineage) {
  make_room(kMaxItemBytes);
  std::byte* p = pos_;
  *p++ = static_cast<std::byte>(kItemTag);
  p = put_delta(p, rec.id, last_.id);
  p = put_delta(p, rec.ts, last_.item_ts);
  p = put_delta(p, rec.t_alloc, last_.t_alloc);
  p = put(p, static_cast<std::uint64_t>(rec.bytes));
  p = put(p, static_cast<std::uint64_t>(static_cast<std::int64_t>(rec.producer)));
  p = put(p, static_cast<std::uint64_t>(static_cast<std::int64_t>(rec.cluster_node)));
  p = put(p, static_cast<std::uint64_t>(rec.produce_cost));
  p = put(p, lineage.size());
  pos_ = p;
  for (const ItemId parent : lineage) {
    make_room(kMaxVarint);
    pos_ = put(pos_, rec.id - parent);
  }
  ++items_;
}

void Shard::decode_into(Trace& trace) const {
  std::vector<Range> blocks;
  for (const Block& b : blocks_) {
    blocks.push_back({b.data.get(), &b == &blocks_.back() ? pos_ : b.data.get() + b.used});
  }
  Reader in(std::move(blocks));
  Last last;
  while (in.more()) {
    const std::uint8_t tag = in.tag();
    if (tag != kItemTag) {
      Event& e = trace.events.emplace_back();
      e.type = static_cast<EventType>(tag);
      e.node = static_cast<NodeRef>(in.get_delta(last.node));
      e.ts = in.get_delta(last.ts);
      e.item = in.get_delta(last.item);
      e.t = in.get_delta(last.t);
      e.a = static_cast<std::int64_t>(in.get());
      e.b = static_cast<std::int64_t>(in.get());
      continue;
    }
    ItemRecord& rec = trace.items.emplace_back();
    rec.id = in.get_delta(last.id);
    rec.ts = in.get_delta(last.item_ts);
    rec.t_alloc = in.get_delta(last.t_alloc);
    rec.bytes = static_cast<std::int64_t>(in.get());
    rec.producer = static_cast<NodeRef>(static_cast<std::int64_t>(in.get()));
    rec.cluster_node = static_cast<std::int32_t>(static_cast<std::int64_t>(in.get()));
    rec.produce_cost = static_cast<std::int64_t>(in.get());
    const std::uint64_t n = in.get();
    rec.lineage.resize(n);
    for (ItemId& parent : rec.lineage) {
      in.more();  // the writer checks room before each lineage id
      parent = rec.id - in.get();
    }
  }
}

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kAlloc: return "alloc";
    case EventType::kFree: return "free";
    case EventType::kPut: return "put";
    case EventType::kConsume: return "consume";
    case EventType::kSkip: return "skip";
    case EventType::kDrop: return "drop";
    case EventType::kCompute: return "compute";
    case EventType::kElide: return "elide";
    case EventType::kEmit: return "emit";
    case EventType::kDisplay: return "display";
    case EventType::kStp: return "stp";
    case EventType::kSleep: return "sleep";
    case EventType::kBlocked: return "blocked";
    case EventType::kTransfer: return "transfer";
    case EventType::kOverhead: return "overhead";
    case EventType::kGauge: return "gauge";
    case EventType::kReplicate: return "replicate";
    case EventType::kReplicaFree: return "replica-free";
    case EventType::kNetTx: return "net-tx";
    case EventType::kNetRx: return "net-rx";
    case EventType::kReconnect: return "reconnect";
  }
  return "?";
}

Shard* Recorder::new_shard() {
  const util::MutexLock lock(mu_);
  shards_.push_back(std::make_unique<Shard>(&block_bytes_));
  return shards_.back().get();
}

void Recorder::set_node_name(NodeRef node, std::string name) {
  const util::MutexLock lock(mu_);
  if (node < 0) return;
  if (static_cast<std::size_t>(node) >= node_names_.size()) {
    node_names_.resize(static_cast<std::size_t>(node) + 1);
  }
  node_names_[static_cast<std::size_t>(node)] = std::move(name);
}

void Recorder::record_any_thread(const Event& e) {
  const util::MutexLock lock(mu_);
  any_thread_shard_.record(e);
}

Trace Recorder::merge(std::int64_t t_begin, std::int64_t t_end) const {
  const util::MutexLock lock(mu_);
  Trace trace;
  trace.t_begin = t_begin;
  trace.t_end = t_end;
  trace.node_names = node_names_;

  std::size_t total_events = any_thread_shard_.events_;
  std::size_t total_items = any_thread_shard_.items_;
  for (const auto& s : shards_) {
    total_events += s->events_;
    total_items += s->items_;
  }
  trace.events.reserve(total_events);
  trace.items.reserve(total_items);

  for (const auto& s : shards_) s->decode_into(trace);
  any_thread_shard_.decode_into(trace);

  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  std::sort(trace.items.begin(), trace.items.end(),
            [](const ItemRecord& a, const ItemRecord& b) { return a.id < b.id; });
  return trace;
}

}  // namespace stampede::stats
