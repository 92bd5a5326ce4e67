/// \file validation_model.cpp
/// \brief Cross-validation: the deterministic rate model
///        (core/simulator.hpp) against the threaded runtime.
///
/// For each ARU mode, the tracker's rate skeleton is fed to the
/// RateSimulator; its steady-state per-channel skip-fraction predictions
/// are compared with the fractions measured from a real tracker run
/// (stats::Breakdown). Agreement means the feedback loop in the live
/// system behaves as the paper's §3.3 algorithm says it should — and
/// that the model can be trusted for the design-space sweeps in
/// ablation_stability.
///
/// Usage: validation_model [seconds=6] [seed=42] [csv=...]
#include <algorithm>
#include <map>
#include <stdexcept>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "stats/breakdown.hpp"

using namespace stampede;
using namespace stampede::bench;

namespace {

/// The tracker's rate skeleton: one stage per vision::tracker_spec() task,
/// in spec order, whose consumers are the tasks that read any of its
/// outputs.
std::vector<aru::SimStage> tracker_skeleton(const vision::StageCosts& costs) {
  const std::map<std::string, Nanos> cost_of = {
      {"digitizer", costs.digitizer}, {"background", costs.background},
      {"histogram", costs.histogram}, {"detect1", costs.detect0},
      {"detect2", costs.detect1},     {"gui", costs.gui},
  };
  const auto& tasks = vision::tracker_spec().tasks;
  std::vector<aru::SimStage> stages;
  for (const auto& t : tasks) {
    aru::SimStage stage{.name = t.name, .cost = cost_of.at(t.name)};
    for (std::size_t c = 0; c < tasks.size(); ++c) {
      if (std::ranges::find_first_of(tasks[c].inputs, t.outputs) != tasks[c].inputs.end()) {
        stage.consumers.push_back(static_cast<int>(c));
      }
    }
    stages.push_back(std::move(stage));
  }
  return stages;
}

/// Skeleton index of the task that writes `channel`.
int producer_of(const std::string& channel) {
  const auto& tasks = vision::tracker_spec().tasks;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (std::ranges::find(tasks[i].outputs, channel) != tasks[i].outputs.end()) {
      return static_cast<int>(i);
    }
  }
  throw std::logic_error("no tracker task writes '" + channel + "'");
}

/// Aggregate predicted skip fraction for a channel with producer `p` and
/// consumers `cs`: consumed rate is Σ 1/P_c against produced rate
/// n × 1/P_p, so skipped fraction = 1 − (P_p/n) Σ 1/P_c.
double predicted_channel_skip(aru::RateSimulator& sim, int p, std::span<const int> cs) {
  const double pp = static_cast<double>(sim.effective_period(p).count());
  double consume_rate = 0.0;
  for (const int c : cs) {
    consume_rate += 1.0 / static_cast<double>(sim.effective_period(c).count());
  }
  const double produce_rate = static_cast<double>(cs.size()) / pp;
  return std::max(0.0, 1.0 - consume_rate / produce_rate);
}

/// Measured skip fraction of one channel: skips / (skips + consumes).
double measured_channel_skip(const stats::Breakdown& b, const char* name_prefix) {
  for (const auto& buf : b.buffers) {
    if (buf.name.find(name_prefix) == std::string::npos) continue;
    const double total = static_cast<double>(buf.skips + buf.consumes);
    return total > 0 ? static_cast<double>(buf.skips) / total : 0.0;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options cli = Options::parse(argc, argv);

  Table table("Model validation — predicted vs measured channel skip fractions");
  table.set_header({"mode", "channel", "predicted skip %", "measured skip %"});

  for (const aru::Mode mode : paper_modes()) {
    // Analytic prediction from the rate skeleton.
    vision::TrackerOptions opts = tracker_options_from(cli, mode, 1);
    opts.duration = seconds(cli.get_int("seconds", 6));
    const std::vector<aru::SimStage> skeleton =
        tracker_skeleton(vision::StageCosts{}.scaled(opts.scale));
    aru::RateSimulator sim(skeleton, {.mode = mode});
    sim.run(12);  // well past convergence (depth <= 4 hops)

    // Measurement from a real run.
    std::fprintf(stderr, "  running %s...\n", vision::label(opts).c_str());
    const vision::TrackerResult r = vision::run_tracker(opts);
    const stats::Analyzer analyzer(r.trace);
    const stats::Breakdown b = stats::compute_breakdown(r.trace, analyzer);

    // Every tracker task writes one channel, so a producer stage's
    // consumers are exactly its channel's readers.
    for (const char* channel : {"frames", "masks", "hists"}) {
      const int producer = producer_of(channel);
      table.add_row({aru::to_string(mode), channel,
                     Table::num(100.0 * predicted_channel_skip(
                                            sim, producer, skeleton[producer].consumers),
                                1),
                     Table::num(100.0 * measured_channel_skip(b, channel), 1)});
    }
  }

  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "reading: the 6-stage rate model predicts each channel's skip fraction from\n"
      "steady-state periods alone; the live runtime (with jitter, pressure and\n"
      "blocking) should land near it — exactly under ARU (aligned rates), and\n"
      "directionally for the unthrottled baseline, whose real digitizer period is\n"
      "inflated by the memory-pressure model the skeleton doesn't include.\n");
  maybe_write_csv(cli, table);
  return 0;
}
