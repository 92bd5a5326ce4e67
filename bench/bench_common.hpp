/// \file bench_common.hpp
/// \brief Shared experiment runner for the paper-table benches.
///
/// Every table/figure bench runs the same 3 policies × 2 configurations
/// matrix of tracker experiments (No ARU / ARU-min / ARU-max on 1 and 5
/// simulated nodes) and formats a slice of the resulting metrics. Common
/// CLI knobs: seconds= (run length), seed=, repeats= (averaging), csv=
/// (also write CSV to the given file).
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/options.hpp"
#include "util/table.hpp"
#include "vision/tracker.hpp"

namespace stampede::bench {

struct Cell {
  vision::TrackerOptions opts;
  stats::Analysis analysis;            ///< averaged metrics (last repeat's series)
  std::vector<stats::Analysis> repeats;
};

/// Experiment matrix in paper order: No ARU, ARU-min, ARU-max.
inline std::vector<aru::Mode> paper_modes() {
  return {aru::Mode::kOff, aru::Mode::kMin, aru::Mode::kMax};
}

inline vision::TrackerOptions tracker_options_from(const Options& cli, aru::Mode mode,
                                                   int config) {
  vision::TrackerOptions opts;
  opts.aru = mode;
  opts.cluster_config = config;
  opts.duration = seconds(cli.get_int("seconds", 8));
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  opts.gc = gc::parse_kind(cli.get_string("gc", "dgc"));
  opts.aru_filter = cli.get_string("filter", "passthrough");
  opts.scale = cli.get_double("scale", 1.0);
  return opts;
}

/// Averages scalar metrics across repeats (series kept from the last run).
inline stats::Analysis average(const std::vector<stats::Analysis>& runs) {
  stats::Analysis out = runs.back();
  if (runs.size() == 1) return out;
  auto mean_of = [&](double stats::PerfMetrics::*m) {
    double s = 0;
    for (const auto& r : runs) s += r.perf.*m;
    return s / static_cast<double>(runs.size());
  };
  auto mean_res = [&](double stats::ResourceMetrics::*m) {
    double s = 0;
    for (const auto& r : runs) s += r.res.*m;
    return s / static_cast<double>(runs.size());
  };
  out.perf.throughput_fps = mean_of(&stats::PerfMetrics::throughput_fps);
  out.perf.throughput_fps_std = mean_of(&stats::PerfMetrics::throughput_fps_std);
  out.perf.latency_ms_mean = mean_of(&stats::PerfMetrics::latency_ms_mean);
  out.perf.latency_ms_std = mean_of(&stats::PerfMetrics::latency_ms_std);
  out.perf.jitter_ms = mean_of(&stats::PerfMetrics::jitter_ms);
  out.res.footprint_mb_mean = mean_res(&stats::ResourceMetrics::footprint_mb_mean);
  out.res.footprint_mb_std = mean_res(&stats::ResourceMetrics::footprint_mb_std);
  out.res.igc_mb_mean = mean_res(&stats::ResourceMetrics::igc_mb_mean);
  out.res.igc_mb_std = mean_res(&stats::ResourceMetrics::igc_mb_std);
  out.res.wasted_mem_pct = mean_res(&stats::ResourceMetrics::wasted_mem_pct);
  out.res.wasted_comp_pct = mean_res(&stats::ResourceMetrics::wasted_comp_pct);
  return out;
}

/// Runs one matrix cell with repeats.
inline Cell run_cell(const Options& cli, aru::Mode mode, int config) {
  Cell cell;
  cell.opts = tracker_options_from(cli, mode, config);
  const auto repeats = cli.get_int("repeats", 1);
  for (std::int64_t i = 0; i < repeats; ++i) {
    vision::TrackerOptions opts = cell.opts;
    opts.seed += static_cast<std::uint64_t>(i) * 1000;
    std::fprintf(stderr, "  running %s (repeat %lld/%lld)...\n",
                 vision::label(opts).c_str(), static_cast<long long>(i + 1),
                 static_cast<long long>(repeats));
    cell.repeats.push_back(vision::run_tracker(opts).analysis);
  }
  cell.analysis = average(cell.repeats);
  return cell;
}

/// Writes CSV output when csv= was given.
inline void maybe_write_csv(const Options& cli, const Table& table) {
  const std::string path = cli.get_string("csv", "");
  if (path.empty()) return;
  std::ofstream out(path);
  out << table.to_csv();
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace stampede::bench
