#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "stats/timeseries.hpp"

namespace perfbench {

namespace {

constexpr double kMb = 1024.0 * 1024.0;

bool node_matches(NodeRef want, NodeRef got) { return want == kAnyNode || want == got; }

/// Time-weighted mean (MB) over `w` of the step series driven by `up`
/// (adds `a`) and `down` (subtracts `a`) events.
double weighted_mean_mb(const Trace& trace, EventType up, EventType down, const Window& w) {
  stampede::stats::FootprintSeries s;
  s.t_begin = w.t0;
  s.t_end = w.t1;
  double cur = 0.0;
  for (const Event& e : trace.events) {
    if (e.type == up) {
      cur += static_cast<double>(e.a);
    } else if (e.type == down) {
      cur -= static_cast<double>(e.a);
    } else {
      continue;
    }
    s.t.push_back(std::clamp(e.t, w.t0, w.t1));
    s.bytes.push_back(cur);
  }
  return s.weighted().mean() / kMb;
}

/// Waits of one task (kBlocked, kTransfer, kOverhead), indexed for
/// interval queries. Each event ends at `t` and lasted `a` ns.
class Waits {
 public:
  Waits(const Trace& trace, NodeRef node) {
    for (const Event& e : trace.events) {
      if (e.node != node) continue;
      if (e.type == EventType::kBlocked || e.type == EventType::kTransfer ||
          e.type == EventType::kOverhead) {
        events_.push_back(&e);
      }
    }
  }

  /// Nanoseconds of `type` waits inside (lo, hi], clipped at lo.
  std::int64_t within(EventType type, std::int64_t lo, std::int64_t hi) const {
    std::int64_t total = 0;
    // Trace events are time-sorted, so the interval is a contiguous run.
    auto it = std::upper_bound(events_.begin(), events_.end(), lo,
                               [](std::int64_t t, const Event* e) { return t < e->t; });
    for (; it != events_.end() && (*it)->t <= hi; ++it) {
      if ((*it)->type == type) total += std::min((*it)->a, (*it)->t - lo);
    }
    return total;
  }

  std::int64_t all_within(std::int64_t lo, std::int64_t hi) const {
    return within(EventType::kBlocked, lo, hi) + within(EventType::kTransfer, lo, hi) +
           within(EventType::kOverhead, lo, hi);
  }

 private:
  std::vector<const Event*> events_;
};

/// Emission stream key: the producer of the emitted record (one stream
/// per color model), or the sink itself for kDisplay refreshes.
NodeRef stream_of(const Event& e, const std::unordered_map<std::uint64_t, NodeRef>& producer,
                  NodeRef sink) {
  if (e.type == EventType::kDisplay) return sink;
  const auto it = producer.find(e.item);
  return it == producer.end() ? -1 : it->second;
}

std::unordered_map<std::uint64_t, NodeRef> producers(const Trace& trace) {
  std::unordered_map<std::uint64_t, NodeRef> out;
  out.reserve(trace.items.size());
  for (const auto& rec : trace.items) out.emplace(rec.id, rec.producer);
  return out;
}

}  // namespace

std::vector<Window> quiet_slices(const std::vector<HostMark>& marks) {
  std::vector<double> share;
  for (std::size_t k = 1; k < marks.size(); ++k) {
    const auto total = static_cast<double>(marks[k].total - marks[k - 1].total);
    share.push_back(total > 0 ? static_cast<double>(marks[k].steal - marks[k - 1].steal) / total
                              : 0.0);
  }
  const double cut = median(share);
  std::vector<Window> out;
  for (std::size_t k = 1; k < marks.size(); ++k) {
    if (share[k - 1] <= cut) out.push_back({.t0 = marks[k - 1].t, .t1 = marks[k].t});
  }
  return out;
}

NodeRef find_node(const Trace& trace, const std::string& name) {
  const std::vector<NodeRef> all = find_nodes(trace, name);
  return all.empty() ? -1 : all.front();
}

std::vector<NodeRef> find_nodes(const Trace& trace, const std::string& name) {
  std::vector<NodeRef> out;
  for (std::size_t i = 0; i < trace.node_names.size(); ++i) {
    if (trace.node_names[i] == name) out.push_back(static_cast<NodeRef>(i));
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile tail_percentile(std::vector<double> v, double want, std::int64_t min_beyond) {
  Percentile p;
  p.samples = static_cast<std::int64_t>(v.size());
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  for (double q = want; q >= 50.0; q -= 1.0) {
    // Nearest rank: the smallest value with at least q% of the sample at
    // or below it.
    const auto rank = static_cast<std::int64_t>(std::ceil(q / 100.0 * n));
    const std::int64_t idx = std::clamp<std::int64_t>(rank - 1, 0, p.samples - 1);
    const std::int64_t beyond = p.samples - 1 - idx;
    if (beyond >= min_beyond || q <= 50.0) {
      p.q = q;
      p.value = v[static_cast<std::size_t>(idx)];
      p.beyond = beyond;
      return p;
    }
  }
  p.q = 50.0;
  p.value = median(v);
  p.beyond = p.samples / 2;
  return p;
}

std::vector<Event> emits_in(const Trace& trace, NodeRef sink, const Window& w) {
  std::vector<Event> out;
  for (const Event& e : trace.events) {
    if (e.type == EventType::kEmit && e.node == sink && w.contains(e.t)) out.push_back(e);
  }
  return out;
}

std::int64_t distinct_results(const Trace& trace, NodeRef sink, const Window& w) {
  // A result is a frame timestamp at its first emission; the two color
  // models' records of one frame can leave in different windows.
  std::unordered_map<Ts, std::int64_t> first;
  for (const Event& e : trace.events) {
    if (e.type == EventType::kEmit && e.node == sink) first.try_emplace(e.ts, e.t);
  }
  std::int64_t n = 0;
  for (const auto& [ts, t] : first) n += w.contains(t) ? 1 : 0;
  return n;
}

std::vector<double> ts_matched_latency_ms(const Trace& source_trace, NodeRef source,
                                          const Trace& sink_trace, NodeRef sink,
                                          const Window& w) {
  std::unordered_map<Ts, std::int64_t> born;
  for (const Event& e : source_trace.events) {
    if (e.type == EventType::kAlloc && e.node == source) born.try_emplace(e.ts, e.t);
  }
  std::vector<double> out;
  for (const Event& e : emits_in(sink_trace, sink, w)) {
    const auto it = born.find(e.ts);
    if (it != born.end() && e.t >= it->second) {
      out.push_back(static_cast<double>(e.t - it->second) / 1e6);
    }
  }
  return out;
}

double cpu_ms_per_frame(double cpu_seconds, std::int64_t results) {
  return results > 0 ? cpu_seconds * 1e3 / static_cast<double>(results) : 0.0;
}

std::int64_t sum_a(const Trace& trace, EventType type, NodeRef node, const Window& w) {
  std::int64_t total = 0;
  for (const Event& e : trace.events) {
    if (e.type == type && node_matches(node, e.node) && w.contains(e.t)) total += e.a;
  }
  return total;
}

std::int64_t count(const Trace& trace, EventType type, NodeRef node, const Window& w) {
  std::int64_t n = 0;
  for (const Event& e : trace.events) {
    if (e.type == type && node_matches(node, e.node) && w.contains(e.t)) ++n;
  }
  return n;
}

double settled_summary_stp_ms(const Trace& trace, NodeRef node, const Window& w) {
  std::vector<double> v;
  for (const Event& e : trace.events) {
    if (e.type == EventType::kStp && e.node == node && w.contains(e.t) && e.b > 0) {
      v.push_back(static_cast<double>(e.b) / 1e6);
    }
  }
  return median(std::move(v));
}

double replica_mb(const Trace& trace, const Window& w) {
  return weighted_mean_mb(trace, EventType::kReplicate, EventType::kReplicaFree, w);
}

TsMatchedUsage ts_matched_usage(const std::vector<const Trace*>& traces,
                                const std::vector<Ts>& emitted_ts, const Window& w) {
  const std::unordered_set<Ts> ok(emitted_ts.begin(), emitted_ts.end());
  double mem_total = 0.0;
  double mem_wasted = 0.0;
  double comp_total = 0.0;
  double comp_wasted = 0.0;
  std::vector<std::int64_t> igc_alloc, igc_free, igc_bytes;
  for (const Trace* trace : traces) {
    std::unordered_map<std::uint64_t, std::int64_t> last_use;
    std::unordered_map<std::uint64_t, std::int64_t> freed;
    for (const Event& e : trace->events) {
      if (e.type == EventType::kConsume || e.type == EventType::kEmit) {
        auto [it, fresh] = last_use.try_emplace(e.item, e.t);
        if (!fresh) it->second = std::max(it->second, e.t);
      } else if (e.type == EventType::kFree) {
        freed[e.item] = e.t;
      } else if ((e.type == EventType::kCompute || e.type == EventType::kOverhead) &&
                 w.contains(e.t)) {
        comp_total += static_cast<double>(e.a);
        if (e.type == EventType::kCompute && e.item != 0 && ok.count(e.ts) == 0) {
          comp_wasted += static_cast<double>(e.a);
        }
      }
    }
    for (const auto& rec : trace->items) {
      const std::int64_t born = std::clamp(rec.t_alloc, w.t0, w.t1);
      const auto f = freed.find(rec.id);
      const std::int64_t died = std::clamp(f == freed.end() ? w.t1 : f->second, w.t0, w.t1);
      const double byte_ns = static_cast<double>(rec.bytes) * static_cast<double>(died - born);
      mem_total += byte_ns;
      if (ok.count(rec.ts) == 0) {
        mem_wasted += byte_ns;
        continue;
      }
      const auto u = last_use.find(rec.id);
      igc_alloc.push_back(rec.t_alloc);
      igc_free.push_back(u == last_use.end() ? rec.t_alloc : std::max(rec.t_alloc, u->second));
      igc_bytes.push_back(rec.bytes);
    }
  }
  TsMatchedUsage out;
  out.igc_mb = stampede::stats::footprint_from_intervals(igc_alloc, igc_free, igc_bytes, w.t0,
                                                         w.t1)
                   .weighted()
                   .mean() /
               kMb;
  if (mem_total > 0) out.wasted_mem_pct = 100.0 * mem_wasted / mem_total;
  if (comp_total > 0) out.wasted_comp_pct = 100.0 * comp_wasted / comp_total;
  return out;
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

std::vector<PathSplit> critical_path(const PathTraces& traces, const Window& w) {
  const Trace& front = *traces.front;
  const Trace& back = *traces.back;
  const NodeRef digitizer = find_node(front, "digitizer");
  const NodeRef gui = find_node(back, "gui");

  // Frame birth and production end (the kCompute recorded at its put),
  // by timestamp.
  struct Frame {
    std::int64_t born = 0;
    std::int64_t produced = -1;
  };
  std::unordered_map<Ts, Frame> frames;
  std::unordered_map<std::uint64_t, Ts> frame_ts;
  for (const Event& e : front.events) {
    if (e.node != digitizer) continue;
    if (e.type == EventType::kAlloc && frames.count(e.ts) == 0) {
      frames[e.ts] = Frame{.born = e.t};
      frame_ts[e.item] = e.ts;
    } else if (e.type == EventType::kCompute && e.item != 0) {
      const auto it = frame_ts.find(e.item);
      if (it != frame_ts.end()) frames[it->second].produced = e.t;
    }
  }

  // Location records at the back: production end and the sink's pickup.
  std::unordered_map<std::uint64_t, std::int64_t> record_done;
  std::unordered_map<std::uint64_t, std::int64_t> sink_pickup;
  for (const Event& e : back.events) {
    if (e.type == EventType::kCompute && e.item != 0 && e.node != digitizer) {
      record_done.try_emplace(e.item, e.t);
    } else if (e.type == EventType::kConsume && e.node == gui) {
      sink_pickup.try_emplace(e.item, e.t);
    }
  }
  std::unordered_map<std::uint64_t, const stampede::stats::ItemRecord*> records;
  for (const auto& rec : back.items) records.emplace(rec.id, &rec);

  // Loopback wire time of the frame: front put -> mid store, and mid
  // hand-out -> back materialization at the detector's frames proxy.
  std::unordered_map<Ts, std::int64_t> stored_mid;
  std::map<std::pair<NodeRef, Ts>, std::int64_t> handed_out;      // (consumer, ts)
  std::map<std::pair<NodeRef, Ts>, std::int64_t> materialized;    // (proxy, ts)
  std::vector<NodeRef> frame_proxies;
  if (traces.mid != nullptr) {
    const NodeRef frames_ch = find_node(*traces.mid, "frames");
    for (const Event& e : traces.mid->events) {
      if (e.type == EventType::kPut && e.node == frames_ch) {
        stored_mid.try_emplace(e.ts, e.t);
      } else if (e.type == EventType::kConsume) {
        handed_out.try_emplace({e.node, e.ts}, e.t);
      }
    }
    frame_proxies = find_nodes(back, "frames");
    for (const Event& e : back.events) {
      if (e.type == EventType::kAlloc &&
          std::find(frame_proxies.begin(), frame_proxies.end(), e.node) !=
              frame_proxies.end()) {
        materialized.try_emplace({e.node, e.ts}, e.t);
      }
    }
  }

  std::map<NodeRef, Waits> waits;
  const auto waits_of = [&](const Trace& trace, NodeRef node) -> const Waits& {
    auto it = waits.find(node);
    if (it == waits.end()) it = waits.emplace(node, Waits(trace, node)).first;
    return it->second;
  };
  const Waits dig_waits(front, digitizer);

  std::vector<PathSplit> out;
  for (const Event& e : emits_in(back, gui, w)) {
    const auto f = frames.find(e.ts);
    const auto r = records.find(e.item);
    const auto done = record_done.find(e.item);
    const auto pick = sink_pickup.find(e.item);
    if (f == frames.end() || f->second.produced < 0 || r == records.end() ||
        done == record_done.end() || pick == sink_pickup.end()) {
      continue;
    }
    const std::int64_t a0 = f->second.born;
    const std::int64_t a1 = f->second.produced;
    const NodeRef detector = r->second->producer;
    const std::int64_t a2 = r->second->t_alloc;
    const std::int64_t a3 = done->second;
    const std::int64_t a4 = pick->second;
    const std::int64_t a5 = e.t;
    if (!(a0 <= a1 && a1 <= a2 && a2 <= a3 && a3 <= a4 && a4 <= a5)) continue;

    const Waits& det = waits_of(back, detector);
    const Waits& sink = waits_of(back, gui);
    std::int64_t vision = (a1 - a0 - dig_waits.all_within(a0, a1)) +
                          (a3 - a2 - det.all_within(a2, a3)) +
                          (a5 - a4 - sink.all_within(a4, a5));
    const std::int64_t cluster = det.within(EventType::kTransfer, a1, a2) +
                                 sink.within(EventType::kTransfer, a4, a5);
    std::int64_t net = 0;
    if (traces.mid != nullptr) {
      // The detector's frames proxy is the first one created after it;
      // its rank among the frames proxies is its remote consumer slot.
      std::size_t slot = 0;
      while (slot < frame_proxies.size() && frame_proxies[slot] < detector) ++slot;
      const auto stored = stored_mid.find(e.ts);
      if (slot < frame_proxies.size() && stored != stored_mid.end()) {
        const NodeRef consumer =
            find_node(*traces.mid, "frames:remote_consumer" + std::to_string(slot));
        const auto out_it = handed_out.find({consumer, e.ts});
        const auto in_it = materialized.find({frame_proxies[slot], e.ts});
        if (out_it != handed_out.end() && in_it != materialized.end()) {
          net = std::max<std::int64_t>(0, stored->second - a1) +
                std::max<std::int64_t>(0, in_it->second - out_it->second);
        }
      }
    }
    vision = std::max<std::int64_t>(0, vision);
    const std::int64_t total = a5 - a0;
    PathSplit s;
    s.total = static_cast<double>(total) / 1e6;
    s.vision = static_cast<double>(vision) / 1e6;
    s.cluster = static_cast<double>(cluster) / 1e6;
    s.net = static_cast<double>(net) / 1e6;
    s.runtime = s.total - s.vision - s.cluster - s.net;
    out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

std::int64_t non_increasing_results(const Trace& trace, NodeRef sink, const Window& w) {
  const auto producer = producers(trace);
  std::map<NodeRef, Ts> last;
  std::int64_t bad = 0;
  for (const Event& e : trace.events) {
    if (e.node != sink || (e.type != EventType::kEmit && e.type != EventType::kDisplay)) {
      continue;
    }
    const NodeRef stream = stream_of(e, producer, sink);
    const auto it = last.find(stream);
    if (it != last.end() && e.ts <= it->second && w.contains(e.t)) ++bad;
    last[stream] = e.ts;
  }
  return bad;
}

Check check_sink_increasing(const Trace& trace, NodeRef sink, const std::string& label) {
  Check c{.name = "sink_ts_increasing:" + label};
  if (sink < 0) {
    c.detail = "no sink node in trace";
    return c;
  }
  const Window all{.t0 = INT64_MIN, .t1 = INT64_MAX};
  const std::int64_t bad = non_increasing_results(trace, sink, all);
  const std::int64_t total = count(trace, EventType::kEmit, sink, all);
  c.ok = bad == 0 && total > 0;
  c.detail = std::to_string(bad) + " non-increasing of " + std::to_string(total) + " emits";
  return c;
}

Check check_alloc_free_balance(const Trace& trace, const std::string& label) {
  Check c{.name = "alloc_free_balance:" + label};
  std::unordered_map<std::uint64_t, std::int64_t> live;
  std::int64_t allocs = 0;
  std::int64_t unmatched_frees = 0;
  std::int64_t replica_balance = 0;
  std::int64_t replica_bytes = 0;
  for (const Event& e : trace.events) {
    switch (e.type) {
      case EventType::kAlloc:
        ++allocs;
        live[e.item] += e.a;
        break;
      case EventType::kFree: {
        const auto it = live.find(e.item);
        if (it == live.end() || it->second != e.a) {
          ++unmatched_frees;
        } else {
          live.erase(it);
        }
        break;
      }
      case EventType::kReplicate:
        ++replica_balance;
        replica_bytes += e.a;
        break;
      case EventType::kReplicaFree:
        --replica_balance;
        replica_bytes -= e.a;
        break;
      default:
        break;
    }
  }
  std::int64_t leaked_bytes = 0;
  for (const auto& [id, bytes] : live) leaked_bytes += bytes;
  c.ok = allocs > 0 && live.empty() && unmatched_frees == 0 && replica_balance == 0 &&
         replica_bytes == 0;
  c.detail = std::to_string(allocs) + " allocs, " + std::to_string(live.size()) +
             " live (" + std::to_string(leaked_bytes) + " B), " +
             std::to_string(unmatched_frees) + " unmatched frees, replica balance " +
             std::to_string(replica_balance) + " (" + std::to_string(replica_bytes) + " B)";
  return c;
}

Check check_detection(const std::string& label, std::int64_t found, std::int64_t missed,
                      double mean_error_px, double min_found_share, double max_error_px) {
  Check c{.name = "detection:" + label};
  const std::int64_t runs = found + missed;
  const double share = runs > 0 ? static_cast<double>(found) / static_cast<double>(runs) : 0.0;
  c.ok = runs > 0 && share >= min_found_share && mean_error_px <= max_error_px;
  char buf[160];
  std::snprintf(buf, sizeof buf, "found %lld/%lld (%.3f >= %.2f), mean error %.2f px (<= %.1f)",
                static_cast<long long>(found), static_cast<long long>(runs), share,
                min_found_share, mean_error_px, max_error_px);
  c.detail = buf;
  return c;
}

}  // namespace perfbench
