/// \file multifidelity.cpp
/// \brief Runs the paper's Figure-1 application: Digitizer → Low-fi
///        tracker → Decision → High-fi tracker → GUI, with decision
///        records in a Queue.
///
/// Queues deliver exactly-once and cannot skip, so without ARU the
/// decision queue grows as fast as the low-fi stage outruns the high-fi
/// stage; with ARU the high-fi stage's summary-STP propagates back
/// through the queue and the decision/low-fi/digitizer stages, pacing the
/// whole pipeline — no queue growth, no wasted frames.
///
/// Run:   multifidelity [aru=min|off] [seconds=6]
#include <cstdio>

#include "stats/postmortem.hpp"
#include "util/options.hpp"
#include "vision/multifid.hpp"

using namespace stampede;
using namespace stampede::vision;

int main(int argc, char** argv) {
  const Options cli = Options::parse(argc, argv);
  const aru::Mode mode = aru::parse_mode(cli.get_string("aru", "min"));
  const auto run_seconds = cli.get_int("seconds", 6);

  RuntimeConfig cfg;

  cfg.aru.mode = mode;

  Runtime rt(std::move(cfg));
  MultiFidOptions opts;
  opts.aru = mode;
  const MultiFidHandles h = build_multifid(rt, opts);

  std::printf("Fig.-1 pipeline: digitizer(4ms) -> lowfi(10ms) -> decision(2ms)\n");
  std::printf("                 -> [queue] -> highfi(30ms) -> gui(3ms); ARU=%s\n\n",
              aru::to_string(mode).c_str());

  rt.start();
  // Sample the decision-queue depth over the run.
  std::size_t peak_queue = 0;
  for (std::int64_t i = 0; i < run_seconds * 10; ++i) {
    rt.clock().sleep_for(millis(100));
    peak_queue = std::max(peak_queue, h.decisions->size());
  }
  rt.stop();

  const auto trace = rt.take_trace();
  const auto a = stats::Analyzer(trace).run();
  const auto& c = *h.counters;
  std::printf("low-fi scans        : %lld\n", static_cast<long long>(c.lowfi_scans.load()));
  std::printf("decisions issued    : %lld\n",
              static_cast<long long>(c.decisions_issued.load()));
  std::printf("high-fi analyses    : %lld (frame already collected: %lld)\n",
              static_cast<long long>(c.highfi_runs.load()),
              static_cast<long long>(c.highfi_frame_missing.load()));
  std::printf("peak decision queue : %zu records\n", peak_queue);
  std::printf("displayed results   : %lld (%.1f/s)\n",
              static_cast<long long>(a.perf.frames_emitted), a.perf.throughput_fps);
  std::printf("footprint           : %.2f MB mean; wasted memory %.1f%%\n",
              a.res.footprint_mb_mean, a.res.wasted_mem_pct);
  std::printf("\ncompare: multifidelity aru=off — the decision queue grows unboundedly\n"
              "because queues cannot skip; ARU is the only thing pacing this pipeline.\n");
  return 0;
}
