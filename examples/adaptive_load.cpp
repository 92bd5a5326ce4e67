/// \file adaptive_load.cpp
/// \brief Demonstrates ARU adapting to *time-varying* load — the dynamic
///        phenomenon static tools cannot handle (paper §1).
///
/// A producer feeds an analyzer whose per-item cost triples in the middle
/// third of the run (e.g. the tracked scene gets crowded). Watch the
/// producer's paced period follow the analyzer's summary-STP up and back
/// down, keeping waste near zero throughout; with ARU off, the producer
/// floods harder exactly when the consumer can least afford it.
///
/// Run:   adaptive_load [aru=min|off] [seconds=9]
#include <cstdio>

#include "runtime/runtime.hpp"
#include "stats/postmortem.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace stampede;

namespace {

struct Phase {
  Nanos start;
  Nanos analyzer_cost;
};

TaskStatus producer_body(TaskContext& ctx) {
  static thread_local Timestamp next_ts = 0;
  ctx.compute(millis(2));
  ctx.put(0, ctx.make_item(next_ts++, 32 * 1024, {}));
  return TaskStatus::kContinue;
}

/// Analyzer whose cost follows a low-high-low profile.
TaskBody make_analyzer(Nanos t0) {
  return [t0](TaskContext& ctx) {
    auto in = ctx.get(0);
    if (!in) return TaskStatus::kDone;
    const Nanos elapsed = ctx.now() - t0;
    const bool crowded = elapsed > seconds(3) && elapsed < seconds(6);
    ctx.compute(crowded ? millis(18) : millis(6));
    auto out = ctx.make_item(in->ts(), 512, {in->id()});
    ctx.put(0, out);
    return TaskStatus::kContinue;
  };
}

TaskStatus sink_body(TaskContext& ctx) {
  auto in = ctx.get(0);
  if (!in) return TaskStatus::kDone;
  ctx.emit(*in);
  return TaskStatus::kContinue;
}

}  // namespace

int main(int argc, char** argv) {
  const Options cli = Options::parse(argc, argv);
  const aru::Mode mode = aru::parse_mode(cli.get_string("aru", "min"));
  const auto run_seconds = cli.get_int("seconds", 9);

  RuntimeConfig cfg;

  cfg.aru.mode = mode;

  Runtime rt(std::move(cfg));
  Channel& raw = rt.add_channel({.name = "raw"});
  Channel& results = rt.add_channel({.name = "results"});
  TaskContext& prod = rt.add_task({.name = "producer", .body = producer_body});
  TaskContext& analyzer =
      rt.add_task({.name = "analyzer", .body = make_analyzer(rt.clock().now())});
  TaskContext& sink = rt.add_task({.name = "sink", .body = sink_body});
  rt.connect(prod, raw);
  rt.connect(raw, analyzer);
  rt.connect(analyzer, results);
  rt.connect(results, sink);

  std::printf("analyzer cost profile: 6ms -> 18ms (t in [3s,6s)) -> 6ms; ARU=%s\n\n",
              aru::to_string(mode).c_str());
  rt.start();
  rt.clock().sleep_for(seconds(run_seconds));
  rt.stop();

  const stats::Trace trace = rt.take_trace();
  const stats::Analyzer post(trace);

  // Producer's paced period over time, bucketed per second.
  std::printf("producer summary-STP (its paced period), second by second:\n");
  const auto series = post.stp_series(prod.id());
  const std::int64_t t0 = trace.t_begin;
  std::vector<double> per_second;
  {
    StreamingStats bucket;
    std::int64_t bucket_end = t0 + 1'000'000'000;
    for (const auto& s : series) {
      while (s.t >= bucket_end) {
        per_second.push_back(bucket.count() ? bucket.mean() / 1e6 : 0.0);
        bucket = StreamingStats{};
        bucket_end += 1'000'000'000;
      }
      bucket.add(static_cast<double>(s.summary_ns));
    }
    if (bucket.count()) per_second.push_back(bucket.mean() / 1e6);
  }
  for (std::size_t i = 0; i < per_second.size(); ++i) {
    std::printf("  t=%2zus  %6.2f ms  |%s\n", i, per_second[i],
                std::string(static_cast<std::size_t>(per_second[i] * 2), '#').c_str());
  }

  const auto a = post.run();
  std::printf("\noverall: throughput %.1f/s, wasted memory %.1f%%, footprint %.2f MB\n",
              a.perf.throughput_fps, a.res.wasted_mem_pct, a.res.footprint_mb_mean);
  std::printf("compare:  adaptive_load aru=off  — waste spikes during the crowded phase.\n");
  return 0;
}
