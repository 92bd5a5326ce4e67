/// \file quickstart.cpp
/// \brief Smallest complete ARU example: a three-stage pipeline where the
///        producer is intrinsically 4x faster than the consumer.
///
/// Without ARU the producer creates items that the consumer skips over —
/// wasted memory and computation. With ARU the consumer's summary-STP is
/// piggy-backed upstream on every put/get and the producer paces itself,
/// so almost nothing is wasted.
///
/// Run:   quickstart [aru=off|min|max] [seconds=3]
#include <cstdio>

#include "runtime/runtime.hpp"
#include "stats/postmortem.hpp"
#include "util/options.hpp"

using namespace stampede;

namespace {

/// Producer: makes a 64 KiB item every ~2 ms (unthrottled).
TaskStatus producer_body(TaskContext& ctx) {
  static thread_local Timestamp next_ts = 0;
  ctx.compute(millis(2));
  auto item = ctx.make_item(next_ts++, 64 * 1024, {});
  ctx.put(0, item);
  return TaskStatus::kContinue;
}

/// Worker: consumes the latest item, works ~8 ms, forwards a summary.
TaskStatus worker_body(TaskContext& ctx) {
  auto in = ctx.get(0);
  if (!in) return TaskStatus::kDone;
  ctx.compute(millis(8));
  auto out = ctx.make_item(in->ts(), 1024, {in->id()});
  ctx.put(0, out);
  return TaskStatus::kContinue;
}

/// Sink: displays results; every consumed item counts as an emission.
TaskStatus sink_body(TaskContext& ctx) {
  auto in = ctx.get(0);
  if (!in) return TaskStatus::kDone;
  ctx.compute(millis(1));
  ctx.emit(*in);
  return TaskStatus::kContinue;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const aru::Mode mode = aru::parse_mode(opts.get_string("aru", "min"));
  const auto run_seconds = opts.get_int("seconds", 3);

  RuntimeConfig cfg;

  cfg.aru.mode = mode;

  Runtime rt(std::move(cfg));
  Channel& raw = rt.add_channel({.name = "raw"});
  Channel& refined = rt.add_channel({.name = "refined"});
  TaskContext& prod = rt.add_task({.name = "producer", .body = producer_body});
  TaskContext& work = rt.add_task({.name = "worker", .body = worker_body});
  TaskContext& sink = rt.add_task({.name = "sink", .body = sink_body});
  rt.connect(prod, raw);
  rt.connect(raw, work);
  rt.connect(work, refined);
  rt.connect(refined, sink);

  std::printf("pipeline: producer(2ms) -> raw -> worker(8ms) -> refined -> sink\n");
  std::printf("ARU mode: %s, running %llds...\n\n", aru::to_string(mode).c_str(),
              static_cast<long long>(run_seconds));

  rt.start();
  rt.clock().sleep_for(seconds(run_seconds));
  rt.stop();

  const stats::Trace trace = rt.take_trace();
  const stats::Analyzer analyzer(trace);
  const stats::Analysis a = analyzer.run();

  std::printf("results:\n");
  std::printf("  emitted results     : %lld\n",
              static_cast<long long>(a.perf.frames_emitted));
  std::printf("  throughput          : %.1f items/s\n", a.perf.throughput_fps);
  std::printf("  latency             : %.1f ms (std %.1f)\n", a.perf.latency_ms_mean,
              a.perf.latency_ms_std);
  std::printf("  mean footprint      : %.2f MB (ideal-GC bound %.2f MB)\n",
              a.res.footprint_mb_mean, a.res.igc_mb_mean);
  std::printf("  items wasted        : %lld of %lld (%.1f%% of memory use)\n",
              static_cast<long long>(a.res.items_wasted),
              static_cast<long long>(a.res.items_total), a.res.wasted_mem_pct);
  std::printf("  computation wasted  : %.1f%%\n", a.res.wasted_comp_pct);
  std::printf("\nTry:  quickstart aru=off   — watch waste appear.\n");
  return 0;
}
