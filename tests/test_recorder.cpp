#include "stats/recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace stampede::stats {
namespace {

Event ev(EventType type, std::int64_t t, ItemId item = 0) {
  return Event{.type = type, .item = item, .t = t};
}

constexpr std::int64_t kMin64 = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax64 = std::numeric_limits<std::int64_t>::max();
constexpr ItemId kMaxId = std::numeric_limits<ItemId>::max();
constexpr auto kEventTypes = static_cast<std::uint64_t>(EventType::kReconnect) + 1;

std::string describe(const Event& e) {
  return std::string(to_string(e.type)) + " node=" + std::to_string(e.node) +
         " ts=" + std::to_string(e.ts) + " item=" + std::to_string(e.item) +
         " t=" + std::to_string(e.t) + " a=" + std::to_string(e.a) +
         " b=" + std::to_string(e.b);
}

bool same(const Event& x, const Event& y) {
  return x.type == y.type && x.node == y.node && x.ts == y.ts && x.item == y.item &&
         x.t == y.t && x.a == y.a && x.b == y.b;
}

bool same(const ItemRecord& x, const ItemRecord& y) {
  return x.id == y.id && x.ts == y.ts && x.bytes == y.bytes && x.producer == y.producer &&
         x.cluster_node == y.cluster_node && x.t_alloc == y.t_alloc &&
         x.produce_cost == y.produce_cost && x.lineage == y.lineage;
}

/// The merge contract: every registered shard's records in registration
/// order, then the any-thread shard's; events stable-sorted by t, items
/// sorted by id.
Trace expected_merge(std::vector<std::vector<Event>> events,
                     std::vector<std::vector<ItemRecord>> items) {
  Trace t;
  for (auto& es : events) t.events.insert(t.events.end(), es.begin(), es.end());
  for (auto& is : items) t.items.insert(t.items.end(), is.begin(), is.end());
  std::stable_sort(t.events.begin(), t.events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  std::sort(t.items.begin(), t.items.end(),
            [](const ItemRecord& a, const ItemRecord& b) { return a.id < b.id; });
  return t;
}

void expect_same_trace(const Trace& got, const Trace& want) {
  ASSERT_EQ(got.events.size(), want.events.size());
  ASSERT_EQ(got.items.size(), want.items.size());
  for (std::size_t i = 0; i < want.events.size(); ++i) {
    ASSERT_TRUE(same(got.events[i], want.events[i]))
        << "event " << i << ": got " << describe(got.events[i]) << ", want "
        << describe(want.events[i]);
  }
  for (std::size_t i = 0; i < want.items.size(); ++i) {
    ASSERT_TRUE(same(got.items[i], want.items[i])) << "item record " << i << " (id "
                                                   << want.items[i].id << ") differs";
  }
}

/// A value from `pick`, with the 64-bit extremes mixed in.
std::int64_t wide(Xoshiro256& rng, std::int64_t pick) {
  switch (rng.below(8)) {
    case 0: return kMin64;
    case 1: return kMax64;
    case 2: return static_cast<std::int64_t>(rng.next());
    default: return pick;
  }
}

Event random_event(Xoshiro256& rng, std::int64_t& clock) {
  // Mostly forward in small steps, sometimes backwards (a channel's
  // batched flush records earlier instants after later ones).
  clock += static_cast<std::int64_t>(rng.below(2'000'000)) -
           (rng.below(6) == 0 ? 3'000'000 : 0);
  static constexpr NodeRef kNodes[] = {-1, kPoolGaugeNode, 0, 3, 17,
                                       std::numeric_limits<NodeRef>::min(),
                                       std::numeric_limits<NodeRef>::max()};
  return Event{.type = static_cast<EventType>(rng.below(kEventTypes)),
               .node = kNodes[rng.below(std::size(kNodes))],
               .ts = wide(rng, static_cast<std::int64_t>(rng.below(5000)) - 1),
               .item = rng.below(4) == 0    ? 0
                       : rng.below(16) == 0 ? kMaxId
                                            : rng.below(1u << 20),
               .t = rng.below(32) == 0 ? wide(rng, clock) : clock,
               .a = wide(rng, static_cast<std::int64_t>(rng.below(1u << 24))),
               .b = wide(rng, -static_cast<std::int64_t>(rng.below(100)))};
}

ItemRecord random_item(Xoshiro256& rng, ItemId id, std::int64_t clock) {
  ItemRecord rec{.id = id,
                 .ts = wide(rng, static_cast<std::int64_t>(rng.below(5000))),
                 .bytes = wide(rng, static_cast<std::int64_t>(rng.below(1u << 22))),
                 .producer = static_cast<NodeRef>(rng.below(20)) - 1,
                 .cluster_node = rng.below(8) == 0 ? std::numeric_limits<std::int32_t>::min()
                                                   : static_cast<std::int32_t>(rng.below(5)),
                 .t_alloc = wide(rng, clock),
                 .produce_cost = wide(rng, static_cast<std::int64_t>(rng.below(50'000'000)))};
  const std::uint64_t n = rng.below(10) == 0 ? rng.below(40) : rng.below(3);
  for (std::uint64_t k = 0; k < n; ++k) {
    const ItemId near = id - 1 - rng.below(std::min<ItemId>(id, 50));
    rec.lineage.push_back(rng.below(8) == 0 ? rng.next() : near);
  }
  return rec;
}

TEST(Recorder, MergeSortsAcrossShards) {
  Recorder r;
  Shard* a = r.new_shard();
  Shard* b = r.new_shard();
  a->record(ev(EventType::kAlloc, 30));
  b->record(ev(EventType::kAlloc, 10));
  a->record(ev(EventType::kFree, 50));
  b->record(ev(EventType::kPut, 20));

  const Trace t = r.merge(0, 100);
  ASSERT_EQ(t.events.size(), 4u);
  EXPECT_EQ(t.events[0].t, 10);
  EXPECT_EQ(t.events[1].t, 20);
  EXPECT_EQ(t.events[2].t, 30);
  EXPECT_EQ(t.events[3].t, 50);
  EXPECT_EQ(t.t_begin, 0);
  EXPECT_EQ(t.t_end, 100);
}

TEST(Recorder, StableOrderForEqualTimes) {
  Recorder r;
  Shard* a = r.new_shard();
  a->record(Event{.type = EventType::kAlloc, .item = 1, .t = 5});
  a->record(Event{.type = EventType::kFree, .item = 1, .t = 5});
  const Trace t = r.merge(0, 10);
  EXPECT_EQ(t.events[0].type, EventType::kAlloc);
  EXPECT_EQ(t.events[1].type, EventType::kFree);
}

TEST(Recorder, ItemRecordsAreSortedById) {
  Recorder r;
  Shard* a = r.new_shard();
  a->record_item(ItemRecord{.id = 7});
  a->record_item(ItemRecord{.id = 3});
  const Trace t = r.merge(0, 1);
  ASSERT_EQ(t.items.size(), 2u);
  EXPECT_EQ(t.items[0].id, 3u);
  EXPECT_EQ(t.items[1].id, 7u);
}

TEST(Recorder, ItemIdsAreUniqueAcrossThreads) {
  Recorder r;
  std::vector<ItemId> ids(4000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&r, &ids, t] {
      for (int i = 0; i < 1000; ++i) ids[static_cast<std::size_t>(t * 1000 + i)] = r.next_item_id();
    });
  }
  for (auto& th : threads) th.join();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_GT(ids.front(), 0u);  // 0 is reserved for "no item"
}

TEST(Recorder, EmitCounterIsThreadSafe) {
  Recorder r;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < 500; ++i) r.count_emit();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(r.emits(), 2000);
}

TEST(Recorder, NodeNamesLandInTrace) {
  Recorder r;
  r.set_node_name(2, "tracker");
  r.set_node_name(0, "digitizer");
  const Trace t = r.merge(0, 1);
  ASSERT_EQ(t.node_names.size(), 3u);
  EXPECT_EQ(t.node_names[0], "digitizer");
  EXPECT_EQ(t.node_names[2], "tracker");
}

TEST(Recorder, AnyThreadEventsAreMerged) {
  Recorder r;
  r.record_any_thread(ev(EventType::kFree, 42, 9));
  const Trace t = r.merge(0, 100);
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].item, 9u);
}

TEST(Recorder, SeededRoundTripKeepsEveryFieldAndMergeOrder) {
  Xoshiro256 rng(20261020);
  Recorder r;
  constexpr int kShards = 3;
  std::vector<Shard*> shards;
  for (int s = 0; s < kShards; ++s) shards.push_back(r.new_shard());
  // One list per registered shard, plus the any-thread shard last.
  std::vector<std::vector<Event>> events(kShards + 1);
  std::vector<std::vector<ItemRecord>> items(kShards + 1);
  std::vector<std::int64_t> clocks(kShards + 1, 1'000'000'000);

  // Unique item ids, in shuffled order.
  std::vector<ItemId> ids(30'000);
  std::iota(ids.begin(), ids.end(), ItemId{1});
  std::shuffle(ids.begin(), ids.end(), rng);
  ids.back() = kMaxId;
  std::size_t next_id = 0;

  for (int i = 0; i < 300'000; ++i) {
    const auto s = static_cast<std::size_t>(rng.below(kShards + 1));
    Event e = random_event(rng, clocks[s]);
    // Coarse instants, so many events tie on t across shards.
    if (rng.below(2) == 0) e.t = clocks[s] / 1'000'000 * 1'000'000;
    if (s == kShards) {
      r.record_any_thread(e);
    } else {
      shards[s]->record(e);
    }
    events[s].push_back(e);
    if (s < kShards && next_id < ids.size() && i % 6 == 0) {
      ItemRecord rec = random_item(rng, ids[next_id++], clocks[s]);
      shards[s]->record_item(rec);
      items[s].push_back(std::move(rec));
    }
  }
  ASSERT_EQ(next_id, ids.size());
  EXPECT_GT(r.block_bytes(), static_cast<std::int64_t>(kShards * 4 * Shard::kBlockBytes))
      << "every shard should span several full-size blocks";

  expect_same_trace(r.merge(0, 1), expected_merge(std::move(events), std::move(items)));
}

TEST(Recorder, ExtremeValuesRoundTrip) {
  Recorder r;
  Shard* s = r.new_shard();
  const std::vector<Event> events = {
      {.type = EventType::kGauge, .node = kPoolGaugeNode, .ts = kMin64, .item = kMaxId,
       .t = kMax64, .a = kMin64, .b = kMax64},
      {.type = EventType::kReconnect, .node = -1, .ts = kMax64, .item = 0, .t = kMin64,
       .a = kMax64, .b = kMin64},
      {.type = EventType::kAlloc, .node = std::numeric_limits<NodeRef>::max(), .ts = -1,
       .item = 1, .t = kMax64, .a = -1, .b = 0},
      {.type = EventType::kFree, .node = std::numeric_limits<NodeRef>::min(), .ts = 0,
       .item = kMaxId, .t = 0, .a = 0, .b = -1},
  };
  for (const Event& e : events) s->record(e);
  const std::vector<ItemRecord> items = {
      {.id = kMaxId, .ts = kMin64, .bytes = kMax64, .producer = -1,
       .cluster_node = std::numeric_limits<std::int32_t>::max(), .t_alloc = kMin64,
       .produce_cost = kMax64, .lineage = {0, kMaxId, 1, kMaxId - 1}},
      {.id = 0, .ts = kMax64, .bytes = kMin64, .producer = kPoolGaugeNode,
       .cluster_node = std::numeric_limits<std::int32_t>::min(), .t_alloc = kMax64,
       .produce_cost = kMin64, .lineage = {kMaxId}},
  };
  for (const ItemRecord& rec : items) s->record_item(rec);
  expect_same_trace(r.merge(0, 1), expected_merge({events}, {items}));
}

TEST(Recorder, TimeGoingBackwardsWithinOneShardSortsStably) {
  Recorder r;
  Shard* s = r.new_shard();
  // A batched flush: later instants recorded first, with ties.
  const std::vector<Event> events = {
      ev(EventType::kPut, 900, 1), ev(EventType::kPut, 100, 2), ev(EventType::kConsume, 900, 3),
      ev(EventType::kSkip, 100, 4), ev(EventType::kDrop, 50, 5)};
  for (const Event& e : events) s->record(e);
  const Trace t = r.merge(0, 1000);
  expect_same_trace(t, expected_merge({events}, {}));
  EXPECT_EQ(t.events.front().item, 5u);
  EXPECT_EQ(t.events[1].item, 2u);
  EXPECT_EQ(t.events[2].item, 4u);
}

TEST(Recorder, EqualTimesKeepShardRegistrationOrderThenAnyThread) {
  Recorder r;
  Shard* a = r.new_shard();
  Shard* b = r.new_shard();
  r.record_any_thread(ev(EventType::kFree, 5, 1));
  b->record(ev(EventType::kPut, 5, 2));
  a->record(ev(EventType::kAlloc, 5, 3));
  b->record(ev(EventType::kConsume, 5, 4));
  a->record(ev(EventType::kPut, 5, 5));
  const Trace t = r.merge(0, 10);
  std::vector<ItemId> order;
  for (const Event& e : t.events) order.push_back(e.item);
  EXPECT_EQ(order, (std::vector<ItemId>{3, 5, 2, 4, 1}));
}

TEST(Recorder, EmptyAndLongLineagesRoundTripAcrossBlocks) {
  Xoshiro256 rng(7);
  Recorder r;
  Shard* s = r.new_shard();
  std::vector<ItemRecord> items;
  items.push_back(ItemRecord{.id = 10, .ts = 1});  // no lineage
  for (ItemId id : {ItemId{20'000}, ItemId{40'000}}) {
    ItemRecord rec{.id = id, .ts = 2, .t_alloc = 99};
    for (ItemId k = 0; k < 12'000; ++k) {
      rec.lineage.push_back(k % 2 == 0 ? rng.next() : id - 1 - k);
    }
    items.push_back(std::move(rec));
    items.push_back(ItemRecord{.id = id + 1, .ts = 3});  // no lineage, after a long one
  }
  for (const ItemRecord& rec : items) s->record_item(rec);
  // Half the ids are far from their item's (10-byte varints), so each
  // lineage alone outgrows a 64 KiB block.
  EXPECT_GT(r.block_bytes(), static_cast<std::int64_t>(2 * Shard::kBlockBytes));
  expect_same_trace(r.merge(0, 1), expected_merge({}, {items}));
}

TEST(Recorder, LineageSpanReplacesTheRecordsOwn) {
  Recorder r;
  Shard* s = r.new_shard();
  const std::vector<ItemId> parents = {4, 5, 6};
  s->record_item(ItemRecord{.id = 9, .lineage = {1}}, parents);
  const Trace t = r.merge(0, 1);
  ASSERT_EQ(t.items.size(), 1u);
  EXPECT_EQ(t.items[0].lineage, parents);
}

TEST(Recorder, BlocksStartSmallAndDoubleToTheFixedSize) {
  Recorder r;
  EXPECT_EQ(r.block_bytes(), 0);
  Shard* s = r.new_shard();
  EXPECT_EQ(r.block_bytes(), 0);  // a shard that records nothing holds nothing
  s->record(ev(EventType::kAlloc, 1));
  const auto first = static_cast<std::int64_t>(Shard::kFirstBlockBytes);
  EXPECT_EQ(r.block_bytes(), first);
  r.record_any_thread(ev(EventType::kFree, 2));
  EXPECT_EQ(r.block_bytes(), 2 * first);

  // Fill the shard until it has opened four full-size blocks: its blocks
  // are then 256 B, 512 B, ..., 32 KiB, and 64 KiB four times.
  const auto full = static_cast<std::int64_t>(Shard::kBlockBytes);
  const std::int64_t ramp = full - first;  // 256 + 512 + ... + 32 KiB
  std::vector<Event> events = {ev(EventType::kAlloc, 1)};
  for (std::int64_t i = 0; r.block_bytes() < first + ramp + 4 * full; ++i) {
    events.push_back(ev(EventType::kPut, 1000 * i, static_cast<ItemId>(i)));
    s->record(events.back());
  }
  EXPECT_EQ(r.block_bytes(), first + ramp + 4 * full);
  expect_same_trace(r.merge(0, 1), expected_merge({events, {ev(EventType::kFree, 2)}}, {}));
}

TEST(Recorder, OwnedShardsAndAnyThreadRecordConcurrently) {
  // One shard per writer thread (the single-writer discipline), plus
  // threads sharing the mutex-protected any-thread path.
  constexpr int kWriters = 4;
  constexpr int kAnyThread = 2;
  constexpr int kPerThread = 20'000;
  Recorder r;
  std::vector<Shard*> shards;
  for (int w = 0; w < kWriters; ++w) shards.push_back(r.new_shard());
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&r, s = shards[static_cast<std::size_t>(w)], w] {
      for (int i = 0; i < kPerThread; ++i) {
        s->record(Event{.type = EventType::kPut, .node = w, .t = i, .a = i});
        if (i % 10 == 0) {
          s->record_item(ItemRecord{.id = r.next_item_id(), .producer = w, .lineage = {1, 2}});
        }
      }
    });
  }
  for (int w = 0; w < kAnyThread; ++w) {
    threads.emplace_back([&r, w] {
      for (int i = 0; i < kPerThread; ++i) {
        r.record_any_thread(
            Event{.type = EventType::kFree, .node = kWriters + w, .t = i, .a = i});
      }
    });
  }
  for (auto& th : threads) th.join();

  const Trace t = r.merge(0, kPerThread);
  ASSERT_EQ(t.events.size(), static_cast<std::size_t>((kWriters + kAnyThread) * kPerThread));
  ASSERT_EQ(t.items.size(), static_cast<std::size_t>(kWriters * kPerThread / 10));
  // Each writer's events come back complete and in its own order.
  std::vector<std::int64_t> next(kWriters + kAnyThread, 0);
  for (const Event& e : t.events) {
    ASSERT_GE(e.node, 0);
    ASSERT_EQ(e.a, next[static_cast<std::size_t>(e.node)]++) << "writer " << e.node;
  }
  for (const std::int64_t n : next) EXPECT_EQ(n, kPerThread);
  for (const ItemRecord& rec : t.items) EXPECT_EQ(rec.lineage, (std::vector<ItemId>{1, 2}));
}

TEST(EventType, NamesAreStable) {
  EXPECT_STREQ(to_string(EventType::kAlloc), "alloc");
  EXPECT_STREQ(to_string(EventType::kDisplay), "display");
  EXPECT_STREQ(to_string(EventType::kOverhead), "overhead");
}

}  // namespace
}  // namespace stampede::stats
