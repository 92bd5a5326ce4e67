/// \file metrics.hpp
/// \brief Trace-derived metrics and correctness checks of the end-to-end
///        tracker benchmark.
///
/// Everything here is a pure function over `stats::Trace`s that the
/// runtime already records, so the same code scores a live run and the
/// synthetic traces of the benchmark's own tests. Times are clock
/// instants in nanoseconds; a `Window` is the timed part of a run (after
/// warm-up). A multi-fragment deployment has one trace per Runtime; all
/// of them share one steady clock, so events are matched across traces
/// by frame timestamp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/events.hpp"

namespace perfbench {

using stampede::stats::Event;
using stampede::stats::EventType;
using stampede::stats::NodeRef;
using stampede::stats::Trace;
using stampede::stats::Ts;

/// The timed part of a run: [t0, t1] in clock nanoseconds.
struct Window {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  bool contains(std::int64_t t) const { return t >= t0 && t <= t1; }
  double seconds() const { return static_cast<double>(t1 - t0) / 1e9; }
};

/// A mark in the timed window: an instant and the host's CPU time so far,
/// in jiffies, in total and stolen by the hypervisor.
struct HostMark {
  std::int64_t t = 0;
  std::int64_t steal = 0;
  std::int64_t total = 0;
};

/// The slices between consecutive marks whose stolen share of host CPU is
/// at or below the median slice's: the quieter half (at least) of the
/// window, where a shared host disturbs wall-clock rates least. All
/// slices when the host reports no steal.
std::vector<Window> quiet_slices(const std::vector<HostMark>& marks);

/// Node id of the thread or buffer named `name` in `trace` (-1 if absent).
NodeRef find_node(const Trace& trace, const std::string& name);

/// Ids of every node named `name`, in id (creation) order.
std::vector<NodeRef> find_nodes(const Trace& trace, const std::string& name);

/// Median of `v` (0 for an empty sample).
double median(std::vector<double> v);

/// A latency percentile together with the sample that supports it.
struct Percentile {
  double q = 0.0;          ///< percentile actually reported, 0..100
  double value = 0.0;
  std::int64_t samples = 0;
  std::int64_t beyond = 0;  ///< samples strictly above the percentile rank
};

/// Nearest-rank percentile `want` of `v`. When fewer than `min_beyond`
/// samples would lie beyond it, steps down to the highest percentile
/// (in whole percent) that keeps `min_beyond` samples beyond it.
Percentile tail_percentile(std::vector<double> v, double want, std::int64_t min_beyond);

/// Results at the sink: distinct frame timestamps whose first emission by
/// `sink` falls within `w` (each GUI refresh emits one record per color
/// model, and both models' records of a frame make one result).
std::int64_t distinct_results(const Trace& trace, NodeRef sink, const Window& w);

/// Sink emissions (kEmit events) of `sink` within `w`.
std::vector<Event> emits_in(const Trace& trace, NodeRef sink, const Window& w);

/// End-to-end latency of every emission in `w`: emit instant minus the
/// allocation instant of the source frame with the same timestamp
/// (kAlloc by `source` in `source_trace`). Emissions whose frame is
/// unknown are skipped.
std::vector<double> ts_matched_latency_ms(const Trace& source_trace, NodeRef source,
                                          const Trace& sink_trace, NodeRef sink,
                                          const Window& w);

/// Process CPU milliseconds per result (0 when there are no results).
double cpu_ms_per_frame(double cpu_seconds, std::int64_t results);

/// Matches events of every node in sum_a() and count().
inline constexpr NodeRef kAnyNode = -100;

/// Sum of `a` over events of `type` by `node` within `w`.
std::int64_t sum_a(const Trace& trace, EventType type, NodeRef node, const Window& w);

/// Number of events of `type` by `node` within `w`.
std::int64_t count(const Trace& trace, EventType type, NodeRef node, const Window& w);

/// Median summary-STP (ms) the node reported in `w` (kStp samples with a
/// known summary).
double settled_summary_stp_ms(const Trace& trace, NodeRef node, const Window& w);

/// Time-weighted mean of the bytes held in remote replicas (kReplicate
/// minus kReplicaFree) over `w`, in MB.
double replica_mb(const Trace& trace, const Window& w);

/// Ideal-GC bound and waste where lineage is cut at the wire: an item counts
/// as successful when its timestamp reached the sink, and the
/// Ideal-GC bound keeps each such item from allocation to its last
/// consumption in its own trace.
struct TsMatchedUsage {
  double igc_mb = 0.0;
  double wasted_mem_pct = 0.0;
  double wasted_comp_pct = 0.0;
};
TsMatchedUsage ts_matched_usage(const std::vector<const Trace*>& traces,
                                const std::vector<Ts>& emitted_ts, const Window& w);

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

/// Where one result's latency went, in ms. The parts tile the interval
/// from the frame's allocation to the result's emission, following the
/// result's own frame timestamp: source production, the wait until the
/// detector allocated the location record, detector production, the
/// record's residency in its channel, and the sink's work.
struct PathSplit {
  double vision = 0.0;   ///< stage work of digitizer, detector and sink
  double runtime = 0.0;  ///< channel residency, waits for co-inputs, overhead
  double cluster = 0.0;  ///< simulated inter-node transfers (kTransfer)
  double net = 0.0;      ///< wire time of the frame's put and the detector's get
  double total = 0.0;    ///< emit instant minus frame allocation
};

/// The traces of one deployment along the frame path. For an in-process
/// run all three point at the same trace and `mid` is null.
struct PathTraces {
  const Trace* front = nullptr;  ///< holds the digitizer
  const Trace* mid = nullptr;    ///< hosts the frames channel (loopback only)
  const Trace* back = nullptr;   ///< holds the detectors and the sink
};

/// Per-result latency split of every emission in `w`.
std::vector<PathSplit> critical_path(const PathTraces& traces, const Window& w);

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Every emitted stream of `sink` has strictly increasing timestamps:
/// each GUI refresh (kDisplay) and each color model's results (kEmit,
/// grouped by the emitted record's producer).
Check check_sink_increasing(const Trace& trace, NodeRef sink, const std::string& label);

/// Sink emissions whose timestamp does not exceed the previous one of the
/// same stream, within `w` (the failures counted by check_sink_increasing).
std::int64_t non_increasing_results(const Trace& trace, NodeRef sink, const Window& w);

/// Every allocated item was freed and every replica released, with
/// matching byte totals. Call on a trace taken after full teardown.
Check check_alloc_free_balance(const Trace& trace, const std::string& label);

/// Detection quality against ground truth: at least `min_found_share` of
/// detector runs found the target and the mean centroid error stays
/// at or below `max_error_px`.
Check check_detection(const std::string& label, std::int64_t found, std::int64_t missed,
                      double mean_error_px, double min_found_share, double max_error_px);

}  // namespace perfbench
